package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobicache"
	"mobicache/internal/loadgen"
	"mobicache/internal/serve/ring"
)

func newTestDaemon(t *testing.T) *server {
	t.Helper()
	return newServer()
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestConfigSwapRebuildsPool pins the reconfigure bugfix: POST
// /v1/config must rebuild the selector AND its clone pool in one
// critical section. A swap that replaced only s.selector would leave
// clones of the old solver in the pool, and since pooled workers are
// what /v1/select actually runs, the daemon would keep answering with
// the previous algorithm indefinitely. The white-box assertion drains a
// worker from the pool and checks its solver matches the live selector.
func TestConfigSwapRebuildsPool(t *testing.T) {
	s := newTestDaemon(t)
	if w := postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{3, 1, 4, 1, 5}}); w.Code != http.StatusOK {
		t.Fatalf("catalog install: %d %s", w.Code, w.Body)
	}
	// Seed the pool with a pre-reconfigure clone, the hazard case.
	stale := s.pool.Get()
	s.pool.Put(stale)
	if got := s.selector.Solver(); got != "dp" {
		t.Fatalf("initial solver %q, want dp", got)
	}

	w := postJSON(t, s, "/v1/config", map[string]string{"solver": "greedy"})
	if w.Code != http.StatusOK {
		t.Fatalf("config: %d %s", w.Code, w.Body)
	}
	var resp configResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solver != "greedy" || !resp.Rebuilt {
		t.Fatalf("config response %+v, want greedy/rebuilt", resp)
	}
	if got := s.selector.Solver(); got != "greedy" {
		t.Fatalf("live selector solver %q after reconfigure", got)
	}
	// The pool must answer for the NEW selector: no stale dp clones.
	for i := 0; i < 4; i++ {
		worker := s.pool.Get().(*mobicache.Selector)
		if got := worker.Solver(); got != "greedy" {
			t.Fatalf("pooled worker %d still runs solver %q after reconfigure", i, got)
		}
		s.pool.Put(worker)
	}
	// /v1/select keeps working through the rebuilt pool.
	sel := postJSON(t, s, "/v1/select", map[string]any{
		"requests": []map[string]any{{"object": 0, "target": 1}},
		"budget":   10,
	})
	if sel.Code != http.StatusOK {
		t.Fatalf("select after reconfigure: %d %s", sel.Code, sel.Body)
	}
	// Status reports the new solver.
	st := getPath(t, s, "/v1/status")
	var status statusResponse
	if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Solver != "greedy" {
		t.Fatalf("status solver %q, want greedy", status.Solver)
	}
}

func TestConfigRejectsBadSolver(t *testing.T) {
	s := newTestDaemon(t)
	for _, body := range []map[string]string{{"solver": "quantum"}, {"solver": "fptas"}, {"solver": ""}, {}} {
		if w := postJSON(t, s, "/v1/config", body); w.Code != http.StatusBadRequest {
			t.Fatalf("solver %+v accepted: %d %s", body, w.Code, w.Body)
		}
	}
	// Without a catalog the name is recorded but nothing is rebuilt.
	w := postJSON(t, s, "/v1/config", map[string]string{"solver": "greedy"})
	if w.Code != http.StatusOK {
		t.Fatalf("pre-catalog config: %d %s", w.Code, w.Body)
	}
	var resp configResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rebuilt {
		t.Fatal("rebuilt reported without a catalog")
	}
	// The next catalog install builds with the configured solver.
	postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{1, 2}})
	if got := s.selector.Solver(); got != "greedy" {
		t.Fatalf("post-install solver %q, want greedy", got)
	}
}

// TestQueryIntHardened pins the hardened query parsing: negative,
// non-numeric, overflowing, or absurdly large values are a 400, never a
// silently clamped or overflowed work size.
func TestQueryIntHardened(t *testing.T) {
	cases := []struct {
		raw  string
		want int
		ok   bool
	}{
		{"", 7, true}, // absent -> default
		{"n=0", 0, true},
		{"n=5", 5, true},
		{"n=1048576", 1 << 20, true}, // the cap itself
		{"n=1048577", 0, false},      // one past the cap
		{"n=-1", 0, false},
		{"n=abc", 0, false},
		{"n=9999999999999999999999", 0, false}, // overflows int64
		{"n=1e6", 0, false},                    // no float syntax
		{"n=+5", 0, false},                     // "+" URL-decodes to space
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/trace?"+c.raw, nil)
		got, err := queryInt(r, "n", 7)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("queryInt(%q) = (%d, %v), want (%d, nil)", c.raw, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("queryInt(%q) accepted", c.raw)
		}
	}
	// Through the endpoint: bad n is a 400 even with a catalog installed.
	s := newTestDaemon(t)
	postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{1}})
	for _, q := range []string{"?n=-1", "?n=abc", "?n=99999999999999999999", "?n=1048577"} {
		if w := getPath(t, s, "/v1/trace"+q); w.Code != http.StatusBadRequest {
			t.Errorf("GET /v1/trace%s = %d, want 400", q, w.Code)
		}
	}
	if w := getPath(t, s, "/v1/trace?n=3"); w.Code != http.StatusOK {
		t.Errorf("GET /v1/trace?n=3 = %d, want 200", w.Code)
	}
}

// TestInflightCapNeverExceeded pins the reserve-then-check admission
// invariant under concurrency: with the cap at 4 and 32 simultaneous
// requests into a handler that tracks its own concurrency, the observed
// maximum must never exceed the cap and the excess must be shed with 503.
func TestInflightCapNeverExceeded(t *testing.T) {
	s := newTestDaemon(t)
	s.setMaxInflight(4)

	var cur, peak atomic.Int64
	release := make(chan struct{})
	handler := s.shedding(func(w http.ResponseWriter, r *http.Request) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		cur.Add(-1)
		w.WriteHeader(http.StatusOK)
	})

	const parallel = 32
	codes := make([]int, parallel)
	var started, wg sync.WaitGroup
	started.Add(parallel)
	wg.Add(parallel)
	for i := 0; i < parallel; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			started.Wait() // maximize the admission race
			w := httptest.NewRecorder()
			handler(w, httptest.NewRequest(http.MethodGet, "/test", nil))
			codes[i] = w.Code
		}(i)
	}
	// Let every admitted handler park, then release them all.
	deadline := time.Now().Add(5 * time.Second)
	for cur.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := peak.Load(); got > 4 {
		t.Fatalf("observed %d concurrent handlers, cap is 4", got)
	}
	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d: expected both admissions and refusals", ok, shed)
	}
	if s.met.shedRequests.Value() != uint64(shed) {
		t.Fatalf("shed counter %d, want %d", s.met.shedRequests.Value(), shed)
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("inflight %d after drain, want 0", s.inflight.Load())
	}
}

func TestRequestEndpointValidation(t *testing.T) {
	s := newTestDaemon(t)
	// Serving not enabled: 409.
	if w := postJSON(t, s, "/v1/request", serveRequest{Object: 0, Target: 1}); w.Code != http.StatusConflict {
		t.Fatalf("request without serving tier: %d", w.Code)
	}
	if err := s.enableServing(serveOptions{MaxBatch: 1, MaxWait: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Enabled but no catalog: still 409.
	if w := postJSON(t, s, "/v1/request", serveRequest{Object: 0, Target: 1}); w.Code != http.StatusConflict {
		t.Fatalf("request without catalog: %d", w.Code)
	}
	postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{1, 2, 3}})
	defer s.stopEngine()
	for _, bad := range []serveRequest{
		{Object: -1, Target: 1},
		{Object: 3, Target: 1},
		{Object: 0, Target: -0.1},
		{Object: 0, Target: 0},
		{Object: 0, Target: 1.1},
	} {
		if w := postJSON(t, s, "/v1/request", bad); w.Code != http.StatusBadRequest {
			t.Fatalf("bad request %+v: %d %s", bad, w.Code, w.Body)
		}
	}
	w := postJSON(t, s, "/v1/request", serveRequest{Object: 1, Target: 0.9})
	if w.Code != http.StatusOK {
		t.Fatalf("request: %d %s", w.Code, w.Body)
	}
	var resp serveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "download" || resp.Score != 1 {
		t.Fatalf("first request %+v, want a fresh download", resp)
	}
	// Peer endpoint: cached object answers, absent is 404, bad id is 400.
	if w := getPath(t, s, "/v1/peer/object?id=1"); w.Code != http.StatusOK {
		t.Fatalf("peer object cached: %d %s", w.Code, w.Body)
	}
	if w := getPath(t, s, "/v1/peer/object?id=2"); w.Code != http.StatusNotFound {
		t.Fatalf("peer object absent: %d", w.Code)
	}
	for _, q := range []string{"", "?id=-3", "?id=abc", "?id=1048577"} {
		if w := getPath(t, s, "/v1/peer/object"+q); w.Code != http.StatusBadRequest {
			t.Fatalf("peer object %q: %d, want 400", q, w.Code)
		}
	}
}

// TestServingFleetCooperativeFetch runs the serving tier end to end over
// real HTTP: two daemons sharding a catalog by consistent hashing, each
// with the daemon's default window bounds and its own update schedule.
// The first phase is deterministic: station A cooperatively fetches a
// B-owned object from B's cache instead of downloading it. The second
// sends a concurrent zipf load round-robin over both stations, so both
// window loops fetch from each other at once, and pins only identities
// that hold under any schedule.
func TestServingFleetCooperativeFetch(t *testing.T) {
	a, b := newTestDaemon(t), newTestDaemon(t)
	tsA, tsB := httptest.NewServer(a), httptest.NewServer(b)
	defer tsA.Close()
	defer tsB.Close()
	peers := []string{tsA.URL, tsB.URL}
	for d, self := range map[*server]string{a: tsA.URL, b: tsB.URL} {
		if err := d.enableServing(serveOptions{UpdatePeriod: 10, Self: self, Peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
	const objects = 120
	sizes := make([]int64, objects)
	for i := range sizes {
		sizes[i] = 1 + int64(i%4)
	}
	for _, ts := range []*httptest.Server{tsA, tsB} {
		body, _ := json.Marshal(map[string]any{"sizes": sizes})
		resp, err := http.Post(ts.URL+"/v1/catalog", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("catalog install on %s: %d", ts.URL, resp.StatusCode)
		}
	}
	defer a.stopEngine()
	defer b.stopEngine()

	rg, err := ring.New(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote := -1
	for id := 0; id < objects; id++ {
		if rg.OwnerObject(id) == tsB.URL {
			remote = id
			break
		}
	}
	if remote < 0 {
		t.Fatal("no B-owned object in the catalog")
	}

	submit := func(ts *httptest.Server, obj int) serveResponse {
		t.Helper()
		body, _ := json.Marshal(serveRequest{Object: obj, Target: 1})
		resp, err := http.Post(ts.URL+"/v1/request", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out serveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit object %d to %s: %d", obj, ts.URL, resp.StatusCode)
		}
		return out
	}
	serveStatus := func(d *server) serveStatusResponse {
		t.Helper()
		var st serveStatusResponse
		if err := json.Unmarshal(getPath(t, d, "/v1/serve/status").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Warm the object at its owner, then request it at A: A must install
	// B's cooperative copy and serve from cache without downloading.
	if r := submit(tsB, remote); r.Source != "download" {
		t.Fatalf("warming request at B: %+v", r)
	}
	r := submit(tsA, remote)
	if r.Source != "cache" || !r.Peer {
		t.Fatalf("remote object at A served as %+v, want a peer-flagged cache hit", r)
	}
	status := serveStatus(a)
	if !status.Enabled || !status.Running {
		t.Fatalf("serve status %+v, want enabled and running", status)
	}
	if status.PeerHits != 1 || status.PeerFetches != 1 {
		t.Fatalf("peer counters %+v, want exactly one fetch and one hit", status)
	}
	if status.Windows == 0 || status.DroppedWindows != 0 {
		t.Fatalf("window counters %+v", status)
	}

	// Concurrent phase: 16 workers send 2,000 requests of a seeded zipf
	// stream, alternating stations by request index. A window that held
	// its engine lock across peer fetches would block the other
	// station's probes until the peer client timed out.
	stations := []*server{a, b}
	before := []serveStatusResponse{serveStatus(a), serveStatus(b)}
	stream, err := loadgen.NewStream(loadgen.StreamConfig{
		Objects: objects, ZipfS: 1.1, Clients: 32, TargetLo: 0.5, TargetHi: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const requests, workers = 2000, 16
	bodies := make([][]byte, requests)
	for i := range bodies {
		r := stream.Next()
		bodies[i], _ = json.Marshal(serveRequest{Client: r.Client, Object: int(r.Object), Target: r.Target})
	}
	httpc := &http.Client{Timeout: 5 * time.Second}
	var next atomic.Int64
	var answered [2]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < requests; i = int(next.Add(1)) - 1 {
				st := i % 2
				resp, err := httpc.Post(peers[st]+"/v1/request", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Errorf("request %d to station %d: %v", i, st, err)
					return
				}
				var out serveResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || out.Source == "" {
					t.Errorf("request %d to station %d: status %d, answer %+v, decode error %v",
						i, st, resp.StatusCode, out, err)
					return
				}
				answered[st].Add(1)
			}
		}()
	}
	wg.Wait()

	// Every answered request passed through exactly one window of its
	// station, no window failed, no peer fetch failed or was refused, and
	// every peer fetch ended in exactly one hit, miss or failure.
	for i, d := range stations {
		st := serveStatus(d)
		if grown := st.WindowRequests - before[i].WindowRequests; grown != answered[i].Load() {
			t.Errorf("station %d: window_requests grew by %d, %d requests answered", i, grown, answered[i].Load())
		}
		if st.DroppedWindows != 0 || st.PeerFailures != 0 || st.PeerShortCircuits != 0 {
			t.Errorf("station %d: dropped_windows %d, peer_failures %d, peer_short_circuits %d, want 0",
				i, st.DroppedWindows, st.PeerFailures, st.PeerShortCircuits)
		}
		if st.PeerFetches != st.PeerHits+st.PeerMisses+st.PeerFailures {
			t.Errorf("station %d: %d peer fetches, %d hits + %d misses + %d failures",
				i, st.PeerFetches, st.PeerHits, st.PeerMisses, st.PeerFailures)
		}
	}
}

// TestCatalogReinstallSwapsEngine: installing a new catalog replaces the
// engine; the old one is stopped and the new one serves the new size.
func TestCatalogReinstallSwapsEngine(t *testing.T) {
	s := newTestDaemon(t)
	if err := s.enableServing(serveOptions{MaxBatch: 1, MaxWait: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{1, 1}})
	first := s.currentEngine()
	if first == nil {
		t.Fatal("no engine after catalog install")
	}
	postJSON(t, s, "/v1/catalog", map[string]any{"sizes": []int64{1, 1, 1, 1}})
	defer s.stopEngine()
	second := s.currentEngine()
	if second == first {
		t.Fatal("engine not rebuilt on catalog reinstall")
	}
	// The old engine is stopped: direct submits fail.
	if w := postJSON(t, s, "/v1/request", serveRequest{Object: 3, Target: 1}); w.Code != http.StatusOK {
		t.Fatalf("request after reinstall: %d %s", w.Code, w.Body)
	}
}

func TestEnableServingValidates(t *testing.T) {
	cases := []serveOptions{
		{MaxBatch: -1},
		{MaxBatch: 1, MaxWait: -time.Second},
		{MaxBatch: 1, Queue: -1},
		{MaxBatch: 1, Budget: -5},
		{MaxBatch: 1, UpdatePeriod: -1},
		{MaxBatch: 1, Self: "http://c", Peers: []string{"http://a", "http://b"}},
		{Self: "http://a", Peers: []string{"http://a", "http://b"}, PeerBreakerFailures: -1},
		{Self: "http://a", Peers: []string{"http://a", "http://b"}, PeerBreakerOpenEvents: -1},
	}
	for i, opts := range cases {
		s := newTestDaemon(t)
		if err := s.enableServing(opts); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opts)
		}
	}
	// Self not required with fewer than two peers.
	s := newTestDaemon(t)
	if err := s.enableServing(serveOptions{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if s.serveOpts.MaxBatch != 32 {
		t.Fatalf("default max batch %d, want 32", s.serveOpts.MaxBatch)
	}
}

// TestSetSolver covers the flag-time path main uses before any HTTP
// traffic: valid names stick, the empty default is a no-op, and a typo
// fails fast at startup instead of at the first catalog install.
func TestSetSolver(t *testing.T) {
	s := newTestDaemon(t)
	if err := s.setSolver("greedy"); err != nil {
		t.Fatal(err)
	}
	if s.solverName != "greedy" {
		t.Fatalf("solverName = %q, want greedy", s.solverName)
	}
	if err := s.setSolver(""); err != nil {
		t.Fatal(err)
	}
	if s.solverName != "greedy" {
		t.Fatalf("empty name overwrote solverName to %q", s.solverName)
	}
	for _, bad := range []string{"nonsense", "fptas"} {
		if err := s.setSolver(bad); err == nil {
			t.Fatalf("solver name %q accepted", bad)
		}
	}
}
