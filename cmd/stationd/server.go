package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobicache"
	"mobicache/internal/obs"
	"mobicache/internal/recency"
	"mobicache/internal/resilience"
	"mobicache/internal/serve"
)

// server holds the daemon's state: a selector over the installed catalog
// and the live per-object recency vector. A RWMutex lets read-only
// traffic (select, recommend, state) run concurrently while catalog
// installs and recency writes take the exclusive lock. Because a
// mobicache.Selector owns a mutable workspace, concurrent readers never
// share one: each select/recommend borrows a clone from a pool that is
// rebuilt whenever a catalog is installed. Steady-state requests reuse
// pooled workspaces, so the selection hot path allocates nothing.
type server struct {
	mu         sync.RWMutex
	selector   *mobicache.Selector
	pool       *sync.Pool // of *mobicache.Selector clones for s.selector
	recencies  []float64
	sizes      []int64 // installed catalog sizes, retained for solver rebuilds
	solverName string  // current solver for selector (re)builds; see /v1/config
	decay      recency.Decay
	faults     faultStats
	mux        *http.ServeMux

	// Serving tier (see serve.go): nil serveOpts = disabled. The engine
	// lives under mu and is rebuilt by every catalog install.
	serveOpts *serveOptions
	serveMet  *obs.ServeMetrics
	engine    *serve.Engine

	// Observability: a metrics registry scraped by GET /metrics, the
	// daemon's own series, and the decision-trace ring served by
	// GET /v1/trace. The ring is installed on every selector before its
	// clone pool is built, so pooled workers share it.
	reg       *obs.Registry
	met       daemonMetrics
	trace     *obs.TraceRing
	selectSeq atomic.Uint64 // stamps trace records with a selection number

	// Resilience state (see health.go). The breaker runs on an event
	// clock advanced by reported fetch outcomes; it has a dedicated
	// mutex so readiness probes never contend with selection traffic.
	brkMu       sync.Mutex
	breaker     *resilience.Breaker // nil = disabled
	brkEvents   int                 // event clock: one per reported outcome
	maxInflight int64               // concurrent-request cap (0 = unlimited)
	inflight    atomic.Int64
	draining    atomic.Bool
}

// daemonMetrics holds the daemon-level series (per-endpoint request
// counters live behind counted()).
type daemonMetrics struct {
	selectSeconds   *obs.Histogram // wall time per /v1/select solve
	selectScore     *obs.Histogram // mean client score per selection
	failedDownloads *obs.Counter   // mirrors faultStats.FailedDownloads
	retries         *obs.Counter   // mirrors faultStats.Retries
	staleFallbacks  *obs.Counter   // mirrors faultStats.StaleFallbacks
	shedRequests    *obs.Counter   // requests refused by the in-flight cap
	breakerState    *obs.Gauge     // 0 closed, 1 half-open, 2 open

	// Bodies the fast decoder (decode.go) handed to encoding/json.
	selectFallbacks, updatesFallbacks, fetchedFallbacks *obs.Counter
}

// faultStats accumulates what the fronting proxy reports via /v1/failed.
type faultStats struct {
	FailedDownloads uint64 `json:"failed_downloads"`
	Retries         uint64 `json:"retries"`
	StaleFallbacks  uint64 `json:"stale_fallbacks"`
}

func newServer() *server {
	s := &server{decay: recency.DefaultDecay, solverName: "dp"}
	s.reg = obs.NewRegistry()
	s.trace = obs.NewTraceRing(0)
	s.met = daemonMetrics{
		selectSeconds:   s.reg.Histogram("stationd_select_seconds", "wall-clock solve time per selection", obs.SolveTimeBounds),
		selectScore:     s.reg.Histogram("stationd_select_score", "mean client score per selection", obs.ClientScoreBounds),
		failedDownloads: s.reg.Counter("stationd_failed_downloads_total", "downloads the fronting proxy lost to upstream faults"),
		retries:         s.reg.Counter("stationd_fetch_retries_total", "extra fetch attempts reported by the fronting proxy"),
		staleFallbacks:  s.reg.Counter("stationd_stale_fallbacks_total", "failed objects served from a stale cached copy"),
		shedRequests:    s.reg.Counter("stationd_shed_requests_total", "requests refused by the in-flight cap"),
		breakerState:    s.reg.Gauge("stationd_breaker_state", "upstream circuit breaker: 0 closed, 1 half-open, 2 open"),

		selectFallbacks:  decodeFallbacks(s.reg, "select"),
		updatesFallbacks: decodeFallbacks(s.reg, "updates"),
		fetchedFallbacks: decodeFallbacks(s.reg, "fetched"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/catalog", s.counted("catalog", s.handleCatalog))
	mux.HandleFunc("POST /v1/updates", s.counted("updates", s.handleUpdates))
	mux.HandleFunc("POST /v1/fetched", s.counted("fetched", s.handleFetched))
	mux.HandleFunc("POST /v1/failed", s.counted("failed", s.handleFailed))
	mux.HandleFunc("POST /v1/select", s.counted("select", s.handleSelect))
	mux.HandleFunc("POST /v1/recommend", s.counted("recommend", s.handleRecommend))
	mux.HandleFunc("GET /v1/state", s.counted("state", s.handleState))
	mux.HandleFunc("GET /v1/status", s.counted("status", s.handleStatus))
	mux.HandleFunc("GET /v1/trace", s.counted("trace", s.handleTrace))
	mux.HandleFunc("POST /v1/config", s.counted("config", s.handleConfig))
	// Serving tier (enabled by -serve; see serve.go).
	mux.HandleFunc("POST /v1/request", s.counted("request", s.handleRequest))
	mux.HandleFunc("GET /v1/serve/status", s.counted("serve_status", s.handleServeStatus))
	// The peer endpoint is counted but exempt from load shedding: the
	// cooperative path is how an overloaded fleet spreads work, and
	// refusing it would trip the callers' breakers exactly when
	// cooperation matters most.
	mux.HandleFunc("GET /v1/peer/object", s.countedExempt("peer_object", s.handlePeerObject))
	// Probes and metrics bypass counted()'s shedding wrapper: an
	// overloaded or draining daemon must still answer its orchestrator.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// counted wraps a handler with a per-endpoint request counter, rendered
// as one labeled series per endpoint in the shared family
// stationd_requests_total.
func (s *server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c := s.reg.Counter(fmt.Sprintf("stationd_requests_total{endpoint=%q}", endpoint),
		"HTTP requests served, by endpoint")
	sh := s.shedding(h)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		sh(w, r)
	}
}

// decodeFallbacks registers the endpoint's series in the shared family
// stationd_decode_fallbacks_total.
func decodeFallbacks(reg *obs.Registry, endpoint string) *obs.Counter {
	return reg.Counter(fmt.Sprintf("stationd_decode_fallbacks_total{endpoint=%q}", endpoint),
		"request bodies the fast decoder handed to encoding/json, by endpoint")
}

// countedExempt is counted without the shedding wrapper, for endpoints
// that must keep answering at the in-flight cap.
func (s *server) countedExempt(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c := s.reg.Counter(fmt.Sprintf("stationd_requests_total{endpoint=%q}", endpoint),
		"HTTP requests served, by endpoint")
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	}
}

// enablePprof mounts net/http/pprof under /debug/pprof/ (explicitly, so
// profiling stays off unless the -pprof flag asked for it).
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func decode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type catalogRequest struct {
	Sizes []int64 `json:"sizes"`
}

func (s *server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	var req catalogRequest
	if err := decode(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.RLock()
	solverName := s.solverName
	s.mu.RUnlock()
	sel, err := mobicache.NewSelector(req.Sizes, mobicache.WithSolver(solverName))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Install the trace ring before the clone pool exists so every pooled
	// worker records into the shared ring.
	sel.SetTrace(s.trace)
	// When serving is enabled, each catalog install also builds a fresh
	// window engine (station, cache, and peers); the old one is stopped
	// after the swap so in-flight submits fail fast instead of serving a
	// stale catalog.
	var eng *serve.Engine
	if s.serveOpts != nil {
		eng, err = s.buildEngine(req.Sizes, solverName)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		eng.Start()
	}
	s.mu.Lock()
	s.selector = sel
	s.pool = &sync.Pool{New: func() any { return sel.Clone() }}
	// All objects start absent (recency 0): nothing fetched yet. Sizes
	// are retained so /v1/config can rebuild the selector in place.
	s.recencies = make([]float64, len(req.Sizes))
	s.sizes = append([]int64(nil), req.Sizes...)
	old := s.engine
	s.engine = eng
	s.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	writeJSON(w, http.StatusOK, map[string]int{"objects": len(req.Sizes)})
}

type objectsRequest struct {
	Objects []mobicache.ObjectID `json:"objects"`
}

// validObjects checks every id against the installed catalog.
func (s *server) validObjects(ids []mobicache.ObjectID) error {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(s.recencies) {
			return fmt.Errorf("object %d out of range (catalog has %d)", id, len(s.recencies))
		}
	}
	return nil
}

func (s *server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	buf := reqBufs.Get().(*reqBuf)
	defer reqBufs.Put(buf)
	req, err := buf.decodeObjects(r.Body, s.met.updatesFallbacks)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selector == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no catalog installed"))
		return
	}
	if err := s.validObjects(req.Objects); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, id := range req.Objects {
		s.recencies[id] = s.decay.Next(s.recencies[id])
	}
	// The window engine learns of the same master updates; they apply at
	// its next window boundary. NotifyUpdates copies the pooled slice.
	if s.engine != nil {
		s.engine.NotifyUpdates(req.Objects)
	}
	writeJSON(w, http.StatusOK, map[string]int{"decayed": len(req.Objects)})
}

func (s *server) handleFetched(w http.ResponseWriter, r *http.Request) {
	buf := reqBufs.Get().(*reqBuf)
	defer reqBufs.Put(buf)
	req, err := buf.decodeObjects(r.Body, s.met.fetchedFallbacks)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selector == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no catalog installed"))
		return
	}
	if err := s.validObjects(req.Objects); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, id := range req.Objects {
		s.recencies[id] = recency.Fresh
	}
	// Lock order is always s.mu -> s.brkMu (never the reverse), so
	// feeding the breaker here cannot deadlock.
	s.reportOutcomes(len(req.Objects), false)
	writeJSON(w, http.StatusOK, map[string]int{"refreshed": len(req.Objects)})
}

type failedRequest struct {
	Objects []mobicache.ObjectID `json:"objects"`
	Retries uint64               `json:"retries"`
}

// handleFailed records downloads the fronting proxy lost to upstream
// faults after exhausting its retry budget. An object that still has a
// cached copy (recency > 0) was served stale and counts as a fallback;
// the copy keeps its current recency — only a successful fetch refreshes
// it. Recency of failed objects is left untouched.
func (s *server) handleFailed(w http.ResponseWriter, r *http.Request) {
	var req failedRequest
	if err := decode(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selector == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no catalog installed"))
		return
	}
	if err := s.validObjects(req.Objects); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fallbacks := 0
	for _, id := range req.Objects {
		s.faults.FailedDownloads++
		s.met.failedDownloads.Inc()
		if s.recencies[id] > 0 {
			s.faults.StaleFallbacks++
			s.met.staleFallbacks.Inc()
			fallbacks++
		}
	}
	s.faults.Retries += req.Retries
	s.met.retries.Add(req.Retries)
	s.reportOutcomes(len(req.Objects), true)
	writeJSON(w, http.StatusOK, map[string]int{
		"failed":          len(req.Objects),
		"stale_fallbacks": fallbacks,
	})
}

type statusResponse struct {
	Objects int        `json:"objects"`
	Solver  string     `json:"solver"`
	Faults  faultStats `json:"faults"`
	Breaker string     `json:"breaker,omitempty"` // "" when disabled
}

// handleStatus reports the catalog size, the solver and the fault
// counters. Unlike the other endpoints it works before a catalog is
// installed, so it can double as a liveness probe.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	writeJSON(w, http.StatusOK, statusResponse{
		Objects: len(s.recencies),
		Solver:  s.solverName,
		Faults:  s.faults,
		Breaker: s.breakerState(),
	})
}

type selectRequest struct {
	Requests []mobicache.Request `json:"requests"`
	Budget   int64               `json:"budget"`
}

type selectResponse struct {
	Download      []mobicache.ObjectID `json:"download"`
	FromCache     []mobicache.ObjectID `json:"from_cache"`
	DownloadUnits int64                `json:"download_units"`
	AverageScore  float64              `json:"average_score"`
}

// checkTargets rejects any target outside (0, 1]: the score functions
// never count a target ≤ 0 or > 1 as met, so such a request would spend
// budget on a fresh copy it can never be satisfied without.
func checkTargets(reqs []mobicache.Request) error {
	for i, r := range reqs {
		if !(r.Target > 0 && r.Target <= 1) {
			return fmt.Errorf("request %d: target %v outside (0, 1]", i, r.Target)
		}
	}
	return nil
}

func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	buf := reqBufs.Get().(*reqBuf)
	defer reqBufs.Put(buf)
	req, err := buf.decodeSelect(r.Body, s.met.selectFallbacks)
	if err == nil {
		err = checkTargets(req.Requests)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.selector == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no catalog installed"))
		return
	}
	budget := req.Budget
	if budget < 0 {
		budget = mobicache.Unlimited
	}
	worker := s.pool.Get().(*mobicache.Selector)
	// Trace records carry a selection sequence number in the tick slot —
	// the daemon has no simulated clock.
	worker.SetTraceTick(int(s.selectSeq.Add(1)))
	start := time.Now()
	plan, err := worker.Select(req.Requests, s.recencies, budget)
	s.met.selectSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.pool.Put(worker)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.met.selectScore.Observe(plan.AverageScore())
	resp := selectResponse{
		Download:      plan.Download,
		FromCache:     plan.FromCache,
		DownloadUnits: plan.DownloadUnits,
		AverageScore:  plan.AverageScore(),
	}
	if resp.Download == nil {
		resp.Download = []mobicache.ObjectID{}
	}
	if resp.FromCache == nil {
		resp.FromCache = []mobicache.ObjectID{}
	}
	// The plan's slices alias the worker's workspace: serialize the
	// response before the worker goes back in the pool.
	writeJSON(w, http.StatusOK, resp)
	s.pool.Put(worker)
}

type recommendRequest struct {
	Requests      []mobicache.Request `json:"requests"`
	MaxBudget     int64               `json:"max_budget"`
	FractionOfMax float64             `json:"fraction_of_max"`
	MinMarginal   float64             `json:"min_marginal"`
}

type recommendResponse struct {
	Budget     int64   `json:"budget"`
	Efficiency float64 `json:"efficiency"`
	MaxGain    float64 `json:"max_gain"`
}

func (s *server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	err := decode(r.Body, &req)
	if err == nil {
		err = checkTargets(req.Requests)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.selector == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no catalog installed"))
		return
	}
	worker := s.pool.Get().(*mobicache.Selector)
	rep, err := worker.RecommendBudget(req.Requests, s.recencies, req.MaxBudget, mobicache.BoundConfig{
		FractionOfMax: req.FractionOfMax,
		MinMarginal:   req.MinMarginal,
	})
	if err != nil {
		s.pool.Put(worker)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Only scalar fields of the report are used, so the worker can be
	// returned once the response values are extracted.
	resp := recommendResponse{
		Budget:     rep.Budget,
		Efficiency: rep.Efficiency(),
		MaxGain:    rep.MaxGain,
	}
	s.pool.Put(worker)
	writeJSON(w, http.StatusOK, resp)
}

type stateResponse struct {
	Objects   int       `json:"objects"`
	Recencies []float64 `json:"recencies"`
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.selector == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no catalog installed"))
		return
	}
	writeJSON(w, http.StatusOK, stateResponse{
		Objects:   len(s.recencies),
		Recencies: append([]float64(nil), s.recencies...),
	})
}

// handleMetrics renders every registered series in the Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

type traceResponse struct {
	Total     uint64               `json:"total"`
	Decisions []mobicache.Decision `json:"decisions"`
}

// maxQueryInt caps every integer query parameter. Atoi happily parses
// values up to 2^63-1, and a handler that sizes work from an unchecked
// parameter (?n=9e18) can be driven into pathological allocation by one
// request; nothing the daemon serves legitimately needs more than 2^20.
const maxQueryInt = 1 << 20

// queryInt parses an integer query parameter with hardened bounds: an
// absent parameter yields def, anything non-numeric, negative, or above
// maxQueryInt is an error (the caller answers 400).
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n > maxQueryInt {
		return 0, fmt.Errorf("invalid %s %q: want an integer in [0, %d]", name, v, maxQueryInt)
	}
	return n, nil
}

// handleTrace returns the most recent selection decisions, oldest first.
// ?n=K bounds the count (default: everything the ring holds).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n, err := queryInt(r, "n", s.trace.Cap())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	decisions := s.trace.Last(n)
	if decisions == nil {
		decisions = []mobicache.Decision{}
	}
	writeJSON(w, http.StatusOK, traceResponse{Total: s.trace.Total(), Decisions: decisions})
}
