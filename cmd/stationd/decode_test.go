package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mobicache"
	"mobicache/internal/loadgen"
	"mobicache/internal/obs"
	"mobicache/internal/rng"
	"mobicache/internal/workload"
)

// benchBody builds a /v1/select body shaped like the sidecar benchmark's
// traffic: json.Marshal of a map (compact, keys sorted, "tick":0 on every
// request) carrying the paper's Table 1 batch, 5,000 requests with
// targets in [0.5, 1), at budget 2,500. It returns the catalog sizes and
// the decoded batch too.
func benchBody(tb testing.TB) ([]int64, []mobicache.Request, []byte) {
	tb.Helper()
	inst, err := workload.GenInstance(workload.PaperSolutionSpace(rng.None, rng.None, false, 1))
	if err != nil {
		tb.Fatal(err)
	}
	targets, err := loadgen.NewStream(loadgen.StreamConfig{Objects: len(inst.Sizes), TargetLo: 0.5, TargetHi: 1, Seed: 96})
	if err != nil {
		tb.Fatal(err)
	}
	sizes := make([]int64, len(inst.Sizes))
	var reqs []mobicache.Request
	for o, k := range inst.NumRequests {
		sizes[o] = int64(inst.Sizes[o])
		for j := 0; j < k; j++ {
			reqs = append(reqs, mobicache.Request{Client: len(reqs), Object: mobicache.ObjectID(o), Target: targets.Next().Target})
		}
	}
	body, err := json.Marshal(map[string]any{"requests": reqs, "budget": 2500})
	if err != nil {
		tb.Fatal(err)
	}
	return sizes, reqs, body
}

// sameRequests compares two decoded batches exactly: nil and empty
// differ, and targets compare by their bits.
func sameRequests(a, b []mobicache.Request) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Client != b[i].Client || a[i].Object != b[i].Object || a[i].Tick != b[i].Tick ||
			math.Float64bits(a[i].Target) != math.Float64bits(b[i].Target) {
			return false
		}
	}
	return true
}

func sameObjects(a, b []mobicache.ObjectID) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameErr reports whether two decode errors agree: both nil, or both set
// with the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// FuzzDecodeSelect checks the fast decoder against encoding/json, the
// decoder it replaces: for every body, decoding as a selectRequest and as
// an objectsRequest must either fail on both with the same error text or
// succeed on both with the same values. One buffer decodes every input,
// so state left behind by an earlier body would show up as a mismatch.
func FuzzDecodeSelect(f *testing.F) {
	_, reqs, _ := benchBody(f)
	small, err := json.Marshal(map[string]any{"requests": reqs[:3], "budget": 2500})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	for _, seed := range []string{
		// Struct-order keys and every kind of JSON whitespace.
		" {\n\t\"requests\" : [ { \"client\" : 1 , \"object\" : 2 , \"target\" : 0.5 , \"tick\" : 3 } ] ,\r\n \"budget\" : 7 }\n",
		`{"objects":[0,1,2]}`, `{ "objects" : [ ] }`, `{"requests":[]}`,
		// Missing keys.
		`{}`, `{"requests":[{}]}`, `{"budget":3}`, `{"requests":[{"target":1}]}`,
		// Duplicate keys: encoding/json merges duplicate arrays element-wise.
		`{"requests":[{"client":1,"target":0.5}],"requests":[{"object":2}]}`,
		`{"budget":1,"budget":2}`, `{"requests":[{"client":1,"client":2}]}`, `{"objects":[1],"objects":[2]}`,
		// Case-folded, unknown and escaped keys.
		`{"Budget":5}`, `{"REQUESTS":[]}`, `{"requests":[{"Client":1}]}`, `{"Objects":[1]}`,
		`{"requests":[],"extra":1}`, `{"budg\u0065t":5}`, `{"requests":[{"t\u0061rget":0.5}]}`,
		// null and strings.
		`null`, `{"requests":null}`, `{"budget":null}`, `{"requests":[null]}`, `{"objects":null}`,
		`{"requests":[{"target":null}]}`, `{"budget":"5"}`, `{"requests":[{"target":"0.5"}]}`,
		// Numbers: -0, fractions and exponents in int fields, range.
		`{"budget":-0}`, `{"budget":1.0}`, `{"requests":[{"client":1e2}]}`, `{"objects":[-0,1.0]}`,
		`{"requests":[{"target":1e400}]}`, `{"requests":[{"target":1e-400}]}`, `{"requests":[{"target":-0}]}`,
		`{"requests":[{"target":2.5E-3}]}`, `{"budget":9223372036854775807}`, `{"budget":9223372036854775808}`,
		`{"budget":-9223372036854775808}`, `{"budget":-9223372036854775809}`, `{"objects":[99999999999999999999]}`,
		`{"budget":01}`, `{"requests":[{"target":00.5}]}`, `{"budget":-}`, `{"requests":[{"target":1.}]}`,
		// Truncated bodies and trailing bytes.
		``, `{`, `{"budget":`, `{"requests":[{"client":1`, `{"objects":[1,`,
		`{"budget":1} trailing`, `{"objects":[1]}{"objects":[2]}`, `{"budget":1}}`,
	} {
		f.Add([]byte(seed))
	}
	buf := new(reqBuf)
	var fallbacks obs.Counter
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := buf.decodeSelect(bytes.NewReader(body), &fallbacks)
		var want selectRequest
		wantErr := decode(bytes.NewReader(body), &want)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("select: error %v, encoding/json %v", gotErr, wantErr)
		}
		if gotErr == nil && (got.Budget != want.Budget || !sameRequests(got.Requests, want.Requests)) {
			t.Fatalf("select: decoded %+v, encoding/json %+v", *got, want)
		}

		gotObjs, gotErr := buf.decodeObjects(bytes.NewReader(body), &fallbacks)
		var wantObjs objectsRequest
		wantErr = decode(bytes.NewReader(body), &wantObjs)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("objects: error %v, encoding/json %v", gotErr, wantErr)
		}
		if gotErr == nil && !sameObjects(gotObjs.Objects, wantObjs.Objects) {
			t.Fatalf("objects: decoded %v, encoding/json %v", gotObjs.Objects, wantObjs.Objects)
		}
	})
}

// TestDecodeFallbacks drives the three fast-decoded endpoints over HTTP.
// The bench-shaped bodies stay on the fast path (no fallback counted) and
// a body with a case-folded key falls back (one counted); either way the
// daemon must plan exactly what the library plans from encoding/json's
// decoding of the same body.
func TestDecodeFallbacks(t *testing.T) {
	s := newTestDaemon(t)
	sizes, _, body := benchBody(t)
	if w := postJSON(t, s, "/v1/catalog", map[string]any{"sizes": sizes}); w.Code != http.StatusOK {
		t.Fatalf("catalog: %d %s", w.Code, w.Body)
	}
	// Half the catalog fresh, then a round of master updates, so the
	// plan has stale copies to weigh against the budget.
	var even, some []int
	for i := range sizes {
		if i%2 == 0 {
			even = append(even, i)
		}
		if i%3 == 0 {
			some = append(some, i)
		}
	}
	counters := map[string]*obs.Counter{"select": s.met.selectFallbacks, "updates": s.met.updatesFallbacks, "fetched": s.met.fetchedFallbacks}
	post := func(endpoint string, body []byte, fallback bool) *httptest.ResponseRecorder {
		t.Helper()
		before := counters[endpoint].Value()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", endpoint, w.Code, w.Body)
		}
		if got := counters[endpoint].Value() - before; got != map[bool]uint64{false: 0, true: 1}[fallback] {
			t.Fatalf("%s (fallback %v): fallback counter rose by %d", endpoint, fallback, got)
		}
		return w
	}
	mustMarshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post("fetched", mustMarshal(map[string]any{"objects": even}), false)
	post("updates", mustMarshal(map[string]any{"objects": some}), false)
	post("fetched", []byte(`{"Objects":[1]}`), true)
	post("updates", []byte(`{"Objects":[1]}`), true)

	var state stateResponse
	if err := json.Unmarshal(getPath(t, s, "/v1/state").Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	folded := bytes.Replace(body, []byte(`"budget"`), []byte(`"Budget"`), 1)
	for _, tc := range []struct {
		name     string
		body     []byte
		fallback bool
	}{{"bench-shaped", body, false}, {"Budget", folded, true}} {
		var req selectRequest
		if err := decode(bytes.NewReader(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		sel, err := mobicache.NewSelector(sizes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sel.Select(req.Requests, state.Recencies, req.Budget)
		if err != nil {
			t.Fatal(err)
		}
		var got selectResponse
		if err := json.Unmarshal(post("select", tc.body, tc.fallback).Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if !sameObjects(got.Download, want.Download) || !sameObjects(got.FromCache, want.FromCache) ||
			got.DownloadUnits != want.DownloadUnits || got.AverageScore != want.AverageScore() {
			t.Fatalf("%s: daemon planned %d downloads (%d units, score %v), library %d (%d units, score %v)",
				tc.name, len(got.Download), got.DownloadUnits, got.AverageScore,
				len(want.Download), want.DownloadUnits, want.AverageScore())
		}
	}
	raw := getPath(t, s, "/metrics").Body.String()
	for _, line := range []string{
		`stationd_decode_fallbacks_total{endpoint="select"} 1`,
		`stationd_decode_fallbacks_total{endpoint="updates"} 1`,
		`stationd_decode_fallbacks_total{endpoint="fetched"} 1`,
	} {
		if !strings.Contains(raw, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestDecodeSelectNoAllocs pins the fast path's steady state: a pooled
// buffer decodes a bench-shaped body without allocating.
func TestDecodeSelectNoAllocs(t *testing.T) {
	_, _, body := benchBody(t)
	buf := new(reqBuf)
	var fallbacks obs.Counter
	rd := bytes.NewReader(body)
	decodeOnce := func() {
		rd.Reset(body)
		if _, err := buf.decodeSelect(rd, &fallbacks); err != nil {
			t.Fatal(err)
		}
	}
	decodeOnce() // grow the pooled buffers
	if allocs := testing.AllocsPerRun(20, decodeOnce); allocs != 0 {
		t.Fatalf("fast decode: %v allocs/op, want 0", allocs)
	}
	if fallbacks.Value() != 0 {
		t.Fatalf("bench-shaped body fell back %d times", fallbacks.Value())
	}
}

// TestTargetRange checks that every endpoint taking client targets
// rejects one outside (0, 1], naming the request's index. On a catalog
// of two fresh unit objects with budget 1, a target of 0.5 or 1 is met
// by the cached copy; targets 0, -1, 1.5 and 3 used to be accepted, and
// each spent the budget on a fresh copy of object 0.
func TestTargetRange(t *testing.T) {
	s := newTestDaemon(t)
	postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{1, 1}})
	postJSON(t, s, "/v1/fetched", map[string]any{"objects": []int{0, 1}})
	for _, tc := range []struct {
		target float64
		ok     bool
	}{{0.5, true}, {1, true}, {0, false}, {-1, false}, {1.5, false}, {3, false}} {
		reqs := []mobicache.Request{{Client: 0, Object: 1, Target: 1}, {Client: 1, Object: 0, Target: tc.target}}
		for _, ep := range []struct {
			path string
			body map[string]any
		}{
			{"/v1/select", map[string]any{"requests": reqs, "budget": 1}},
			{"/v1/recommend", map[string]any{"requests": reqs, "max_budget": 2}},
		} {
			w := postJSON(t, s, ep.path, ep.body)
			if !tc.ok {
				if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "request 1: target") {
					t.Errorf("%s target %v: %d %s, want 400 naming request 1", ep.path, tc.target, w.Code, w.Body)
				}
				continue
			}
			if w.Code != http.StatusOK {
				t.Errorf("%s target %v: %d %s", ep.path, tc.target, w.Code, w.Body)
			}
			if ep.path == "/v1/select" && !strings.Contains(w.Body.String(), `"download":[]`) {
				t.Errorf("target %v: %s, want no download", tc.target, w.Body)
			}
		}
	}
}

// BenchmarkDecodeSelect times decoding the bench-shaped /v1/select body:
// the fast path over a pooled buffer against the encoding/json decode it
// replaced.
func BenchmarkDecodeSelect(b *testing.B) {
	_, _, body := benchBody(b)
	b.Run("fast", func(b *testing.B) {
		buf := new(reqBuf)
		var fallbacks obs.Counter
		rd := bytes.NewReader(body)
		decodeOnce := func() {
			rd.Reset(body)
			if _, err := buf.decodeSelect(rd, &fallbacks); err != nil {
				b.Fatal(err)
			}
		}
		decodeOnce() // grow the pooled buffers
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decodeOnce()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req selectRequest
			if err := decode(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
