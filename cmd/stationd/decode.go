package main

import (
	"bytes"
	"io"
	"strconv"
	"sync"

	"mobicache"
	"mobicache/internal/obs"
)

// Selection bodies are large: a sidecar batch of 5,000 requests is about
// 327 KB, and encoding/json spends ~8 ms and ~1.8 MB decoding one, several
// times the knapsack solve it feeds. /v1/select and the /v1/updates and
// /v1/fetched writes that follow each selection therefore read the body
// into a pooled buffer and decode it with a scanner that knows their two
// schemas and writes into pooled slices without allocating.
//
// The scanner accepts a strict subset of JSON: whitespace, the exact
// lower-case keys (requests, budget, client, object, target, tick,
// objects) in any order and each at most once per object, missing keys
// as zero values, integers in JSON grammar that fit their field, and a
// target in JSON number grammar parsed by strconv.ParseFloat (which is
// what encoding/json calls). Bytes after the top-level object are
// ignored, as json.Decoder.Decode ignores them. Any other body — escapes,
// case-folded, unknown or duplicate keys, null, strings, fractions or
// exponents in an integer, out-of-range numbers, truncation — is decoded
// again from the same bytes by decode, so accepted inputs, decoded values
// and error text are exactly encoding/json's.

// reqBuf is one request's pooled body and decode state. The decoded
// request's slices alias it, so they are valid only until the handler
// returns the buffer to reqBufs.
type reqBuf struct {
	body     bytes.Buffer
	sel      selectRequest
	objs     objectsRequest
	requests []mobicache.Request  // backing store for sel.Requests
	objects  []mobicache.ObjectID // backing store for objs.Objects
}

var reqBufs = sync.Pool{New: func() any { return new(reqBuf) }}

// decodeSelect reads a /v1/select body and decodes it, counting a
// fallback to encoding/json on fallbacks.
func (b *reqBuf) decodeSelect(body io.Reader, fallbacks *obs.Counter) (*selectRequest, error) {
	if err := b.read(body); err != nil {
		return nil, err
	}
	if b.scanSelect() {
		return &b.sel, nil
	}
	fallbacks.Inc()
	b.sel = selectRequest{}
	return &b.sel, decode(bytes.NewReader(b.body.Bytes()), &b.sel)
}

// decodeObjects is decodeSelect for /v1/updates and /v1/fetched bodies.
func (b *reqBuf) decodeObjects(body io.Reader, fallbacks *obs.Counter) (*objectsRequest, error) {
	if err := b.read(body); err != nil {
		return nil, err
	}
	if b.scanObjects() {
		return &b.objs, nil
	}
	fallbacks.Inc()
	b.objs = objectsRequest{}
	return &b.objs, decode(bytes.NewReader(b.body.Bytes()), &b.objs)
}

func (b *reqBuf) read(body io.Reader) error {
	b.body.Reset()
	_, err := b.body.ReadFrom(body)
	return err
}

// scanSelect decodes the body into b.sel on the fast path, reporting
// false if the body is outside the fast grammar.
func (b *reqBuf) scanSelect() bool {
	b.sel = selectRequest{}
	s := scanner{data: b.body.Bytes()}
	var seen uint8
	return s.object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "requests":
			bit = 1
			var reqs []mobicache.Request
			reqs, ok = s.requests(b.requests[:0])
			b.requests = reqs[:0]
			b.sel.Requests = reqs
		case "budget":
			bit = 2
			b.sel.Budget, ok = s.int(64)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// scanObjects decodes the body into b.objs on the fast path.
func (b *reqBuf) scanObjects() bool {
	b.objs = objectsRequest{}
	s := scanner{data: b.body.Bytes()}
	seen := false
	return s.object(func(key []byte) bool {
		if string(key) != "objects" || seen {
			return false
		}
		seen = true
		ids := b.objects[:0]
		if ids == nil {
			ids = []mobicache.ObjectID{}
		}
		ok := s.array(func() bool {
			v, ok := s.int(strconv.IntSize)
			ids = append(ids, mobicache.ObjectID(v))
			return ok
		})
		b.objects = ids[:0]
		b.objs.Objects = ids
		return ok
	})
}

// scanner walks a body on the fast path. Every method reports false as
// soon as the input leaves the fast grammar.
type scanner struct {
	data []byte
	i    int
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// lit consumes the byte c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// object scans {"key": value, ...}, handing each key to member, which
// must consume the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		key, ok := s.key()
		if !ok || !s.lit(':') || !member(key) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// array scans [elem, ...], calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// key scans a quoted key without escapes or control bytes.
func (s *scanner) key() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// requests scans an array of request objects, appending to reqs. An
// empty array yields a non-nil empty slice, as encoding/json's does.
func (s *scanner) requests(reqs []mobicache.Request) ([]mobicache.Request, bool) {
	if reqs == nil {
		reqs = []mobicache.Request{}
	}
	ok := s.array(func() bool {
		reqs = append(reqs, mobicache.Request{})
		r := &reqs[len(reqs)-1]
		var seen uint8
		return s.object(func(key []byte) bool {
			var bit uint8
			var v int64
			ok := false
			switch string(key) {
			case "client":
				bit = 1
				v, ok = s.int(strconv.IntSize)
				r.Client = int(v)
			case "object":
				bit = 2
				v, ok = s.int(strconv.IntSize)
				r.Object = mobicache.ObjectID(v)
			case "target":
				bit = 4
				r.Target, ok = s.float()
			case "tick":
				bit = 8
				v, ok = s.int(strconv.IntSize)
				r.Tick = int(v)
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			return true
		})
	})
	return reqs, ok
}

// number scans a token in JSON number grammar; integer reports that it
// has neither a fraction nor an exponent.
func (s *scanner) number() (tok []byte, integer, ok bool) {
	s.peek()
	d, i := s.data, s.i
	digits := func() bool {
		start := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if i >= len(d) || d[i] < '1' || d[i] > '9' || !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	tok, s.i = d[s.i:i], i
	return tok, integer, true
}

// int scans a JSON integer that fits in a signed integer of the given
// bit size.
func (s *scanner) int(bits int) (int64, bool) {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	neg := tok[0] == '-'
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		tok = tok[1:]
		limit++
	}
	var n uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return int64(n), true
}

// float scans a JSON number and parses it as encoding/json does.
func (s *scanner) float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}
