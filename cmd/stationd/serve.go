package main

// Serving tier of the daemon (the event-driven half): when -serve is on,
// the daemon owns a full station (catalog, server, cache, knapsack
// policy) and ingests individual client requests on POST /v1/request.
// Requests accumulate into bounded selection windows (closed by
// -serve-max-batch requests or -serve-max-wait elapsed) and each window
// runs as one station tick — see internal/serve. A fleet of stationd
// processes shards the catalog with consistent hashing over the -peers
// list and fetches remotely-owned objects cooperatively via
// GET /v1/peer/object before falling back to its own download path.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mobicache"
	"mobicache/internal/basestation"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/obs"
	"mobicache/internal/policy"
	"mobicache/internal/serve"
	"mobicache/internal/serve/ring"
	simserver "mobicache/internal/server"
)

// serveOptions configures the serving tier. Zero values take defaults in
// enableServing.
type serveOptions struct {
	// MaxBatch and MaxWait bound a selection window; Queue bounds the
	// submit queue (see serve.Config).
	MaxBatch int
	MaxWait  time.Duration
	Queue    int
	// Budget is the per-window download budget in data units (0 =
	// unlimited).
	Budget int64
	// UpdatePeriod > 0 runs the station's own periodic-update schedule,
	// one tick per window; 0 means masters change only when POST
	// /v1/updates reports them.
	UpdatePeriod int
	// Self is this station's own peer URL; Peers is the full fleet
	// (including Self). Fewer than two peers disables the cooperative
	// path.
	Self  string
	Peers []string
	// PeerBreakerFailures / PeerBreakerOpenEvents configure the per-peer
	// circuit breakers (0 = defaults).
	PeerBreakerFailures   int
	PeerBreakerOpenEvents int
	// Client performs peer fetches (nil = 2-second-timeout default).
	Client *http.Client
}

// enableServing validates and installs the serving-tier configuration.
// The engine itself is built (and rebuilt) by catalog installs.
func (s *server) enableServing(opts serveOptions) error {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 32
	}
	if opts.MaxBatch < 1 {
		return fmt.Errorf("serve max batch %d, need at least 1", opts.MaxBatch)
	}
	if opts.MaxWait < 0 || opts.Queue < 0 || opts.Budget < 0 || opts.UpdatePeriod < 0 {
		return fmt.Errorf("negative serve option")
	}
	// Checked here, not first by serve.NewPeers at the next catalog
	// install: a daemon that started would otherwise report ready and
	// then refuse every catalog.
	if opts.PeerBreakerFailures < 0 || opts.PeerBreakerOpenEvents < 0 {
		return fmt.Errorf("negative peer breaker option")
	}
	if len(opts.Peers) > 1 {
		found := false
		for _, p := range opts.Peers {
			if p == opts.Self {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-self %q is not in -peers %v", opts.Self, opts.Peers)
		}
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Second}
	}
	s.serveOpts = &opts
	s.serveMet = obs.NewServeMetrics(s.reg)
	return nil
}

// buildEngine assembles a fresh station + window engine for a newly
// installed catalog. Called without s.mu held; the caller swaps the
// result in under the lock.
func (s *server) buildEngine(sizes []int64, solverName string) (*serve.Engine, error) {
	opts := s.serveOpts
	cat, err := catalog.New(sizes)
	if err != nil {
		return nil, err
	}
	var sched catalog.UpdateSchedule
	if opts.UpdatePeriod > 0 {
		sched = catalog.NewPeriodicAll(cat, opts.UpdatePeriod)
	}
	upstream := simserver.New(cat, sched)
	kind, err := core.ParseSolver(solverName)
	if err != nil {
		return nil, err
	}
	sel, err := core.NewSelector(cat, core.Config{Solver: kind})
	if err != nil {
		return nil, err
	}
	pol, err := policy.NewOnDemandKnapsack(sel)
	if err != nil {
		return nil, err
	}
	st, err := basestation.New(basestation.Config{
		Catalog:          cat,
		Server:           upstream,
		Policy:           pol,
		BudgetPerTick:    opts.Budget,
		CompulsoryMisses: true,
	})
	if err != nil {
		return nil, err
	}
	var peers *serve.Peers
	if len(opts.Peers) > 1 {
		rg, err := ring.New(opts.Peers, 0)
		if err != nil {
			return nil, err
		}
		peers, err = serve.NewPeers(serve.PeersConfig{
			Self:              opts.Self,
			Ring:              rg,
			Fetch:             s.peerFetch,
			BreakerFailures:   opts.PeerBreakerFailures,
			BreakerOpenEvents: opts.PeerBreakerOpenEvents,
			Metrics:           s.serveMet,
		})
		if err != nil {
			return nil, err
		}
	}
	return serve.New(serve.Config{
		Station:         st,
		Server:          upstream,
		MaxBatch:        opts.MaxBatch,
		MaxWait:         opts.MaxWait,
		Queue:           opts.Queue,
		Metrics:         s.serveMet,
		Peers:           peers,
		ScheduleUpdates: opts.UpdatePeriod > 0,
	})
}

// currentEngine returns the live engine, or nil when serving is off or
// no catalog has been installed yet.
func (s *server) currentEngine() *serve.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engine
}

// stopEngine stops the live engine (shutdown path). Idempotent.
func (s *server) stopEngine() {
	if e := s.currentEngine(); e != nil {
		e.Stop()
	}
}

// peerFetch is the cross-process FetchFunc: GET the owner's
// /v1/peer/object. 200 is a copy, 404 a clean miss; anything else
// (including transport errors) feeds that peer's circuit breaker.
func (s *server) peerFetch(peer string, id mobicache.ObjectID) (serve.PeerCopy, bool, error) {
	url := fmt.Sprintf("%s/v1/peer/object?id=%d", strings.TrimSuffix(peer, "/"), id)
	resp, err := s.serveOpts.Client.Get(url)
	if err != nil {
		return serve.PeerCopy{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var pc serve.PeerCopy
		if err := json.NewDecoder(resp.Body).Decode(&pc); err != nil {
			return serve.PeerCopy{}, false, fmt.Errorf("peer %s: %w", peer, err)
		}
		if pc.ID != id {
			return serve.PeerCopy{}, false, fmt.Errorf("peer %s answered object %d for %d", peer, pc.ID, id)
		}
		return pc, true, nil
	case http.StatusNotFound:
		_, _ = io.Copy(io.Discard, resp.Body)
		return serve.PeerCopy{}, false, nil
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
		return serve.PeerCopy{}, false, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
}

type serveRequest struct {
	Client int     `json:"client"`
	Object int     `json:"object"`
	Target float64 `json:"target"`
}

type serveResponse struct {
	Window      int     `json:"window"`
	Source      string  `json:"source"`
	Peer        bool    `json:"peer,omitempty"`
	Score       float64 `json:"score"`
	Recency     float64 `json:"recency"`
	Stale       bool    `json:"stale,omitempty"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// handleRequest ingests one client request into the window engine and
// blocks until its window has been served.
func (s *server) handleRequest(w http.ResponseWriter, r *http.Request) {
	var req serveRequest
	err := decode(r.Body, &req)
	if err == nil {
		err = checkTargets([]mobicache.Request{{Target: req.Target}})
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.RLock()
	eng := s.engine
	objects := len(s.recencies)
	s.mu.RUnlock()
	if eng == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("serving tier not running (enable -serve and install a catalog)"))
		return
	}
	if req.Object < 0 || req.Object >= objects {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("object %d out of range (catalog has %d)", req.Object, objects))
		return
	}
	res, err := eng.Submit(r.Context(), client.Request{
		Client: req.Client,
		Object: mobicache.ObjectID(req.Object),
		Target: req.Target,
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, serveResponse{
		Window:      res.Window,
		Source:      res.Source.String(),
		Peer:        res.Peer,
		Score:       res.Score,
		Recency:     res.Recency,
		Stale:       res.Stale,
		WaitSeconds: res.Wait.Seconds(),
	})
}

// handlePeerObject answers a peer's cooperative-fetch probe from the
// local cache: 200 with the copy's metadata, or 404 when absent. The
// endpoint is exempt from load shedding — the peer path is how an
// overloaded fleet spreads work, and refusing it would trip the callers'
// breakers exactly when cooperation matters most.
func (s *server) handlePeerObject(w http.ResponseWriter, r *http.Request) {
	id, err := queryInt(r, "id", -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if id < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing id parameter"))
		return
	}
	eng := s.currentEngine()
	if eng == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("serving tier not running"))
		return
	}
	pc, ok := eng.PeerLookup(mobicache.ObjectID(id))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("object %d not cached", id))
		return
	}
	writeJSON(w, http.StatusOK, pc)
}

type serveStatusResponse struct {
	Enabled           bool     `json:"enabled"`
	Running           bool     `json:"running"`
	Self              string   `json:"self,omitempty"`
	Peers             []string `json:"peers,omitempty"`
	MaxBatch          int      `json:"max_batch,omitempty"`
	MaxWaitSeconds    float64  `json:"max_wait_seconds,omitempty"`
	Windows           uint64   `json:"windows"`
	DroppedWindows    uint64   `json:"dropped_windows"`
	WindowRequests    uint64   `json:"window_requests"`
	PeerFetches       uint64   `json:"peer_fetches"`
	PeerHits          uint64   `json:"peer_hits"`
	PeerMisses        uint64   `json:"peer_misses"`
	PeerFailures      uint64   `json:"peer_failures"`
	PeerShortCircuits uint64   `json:"peer_short_circuits"`
}

// handleServeStatus reports the serving tier's configuration and window
// counters. Works before a catalog is installed (running=false).
func (s *server) handleServeStatus(w http.ResponseWriter, r *http.Request) {
	resp := serveStatusResponse{Enabled: s.serveOpts != nil}
	if opts := s.serveOpts; opts != nil {
		resp.Self = opts.Self
		resp.Peers = opts.Peers
		resp.MaxBatch = opts.MaxBatch
		resp.MaxWaitSeconds = opts.MaxWait.Seconds()
		m := s.serveMet
		resp.Windows = m.Windows.Value()
		resp.DroppedWindows = m.DroppedWindows.Value()
		resp.WindowRequests = m.WindowRequests.Value()
		resp.PeerFetches = m.PeerFetches.Value()
		resp.PeerHits = m.PeerHits.Value()
		resp.PeerMisses = m.PeerMisses.Value()
		resp.PeerFailures = m.PeerFailures.Value()
		resp.PeerShortCircuits = m.PeerShortCircuits.Value()
	}
	resp.Running = s.currentEngine() != nil
	writeJSON(w, http.StatusOK, resp)
}

// setSolver validates and installs the solver used for selector (and
// engine) builds. Startup path; catalog installs pick it up.
func (s *server) setSolver(name string) error {
	if _, err := core.ParseSolver(name); err != nil {
		return err
	}
	s.mu.Lock()
	if name != "" {
		s.solverName = name
	}
	s.mu.Unlock()
	return nil
}

type configRequest struct {
	Solver string `json:"solver"`
}

type configResponse struct {
	Solver  string `json:"solver"`
	Rebuilt bool   `json:"rebuilt"` // selector + pool rebuilt (catalog was installed)
}

// handleConfig reconfigures the knapsack solver at runtime. When a
// catalog is installed, the selector AND its clone pool are rebuilt
// together under one critical section: swapping only the selector would
// leave stale clones of the old solver in the pool, so pooled /v1/select
// workers would keep answering with the previous algorithm indefinitely
// (the pool only drains under GC pressure). The serving-tier engine
// keeps its current solver until the next catalog install — rebuilding
// it here would discard the live cache.
func (s *server) handleConfig(w http.ResponseWriter, r *http.Request) {
	var req configRequest
	if err := decode(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Solver == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing solver"))
		return
	}
	if _, err := core.ParseSolver(req.Solver); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rebuilt := false
	if s.selector != nil {
		sel, err := mobicache.NewSelector(s.sizes, mobicache.WithSolver(req.Solver))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		sel.SetTrace(s.trace)
		s.selector = sel
		s.pool = &sync.Pool{New: func() any { return sel.Clone() }}
		rebuilt = true
	}
	s.solverName = req.Solver
	writeJSON(w, http.StatusOK, configResponse{Solver: req.Solver, Rebuilt: rebuilt})
}
