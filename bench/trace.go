package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Times are nanoseconds from the start of
// the run; Parent is 0 for a root span; every span of one request shares
// Req.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until dump. The zero value is ready; a
// nil tracer records nothing, so untraced runs pay one branch per span.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
	next  uint64
}

// begin fixes the run's time origin.
func (t *tracer) begin(start time.Time) {
	if t != nil {
		t.start = start
	}
}

// reserve returns a fresh span id (0 when tracing is off), for a span
// whose children are recorded before it ends.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addAs records span id between two wall-clock instants. req 0 makes
// the span its own request.
func (t *tracer) addAs(id uint64, name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	if req == 0 {
		req = id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.start).Nanoseconds(), End: end.Sub(t.start).Nanoseconds(),
	})
}

// add records a span under a fresh id and returns the id.
func (t *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := t.reserve()
	t.addAs(id, name, parent, req, start, end)
	return id
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
