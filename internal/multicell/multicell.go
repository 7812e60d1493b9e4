// Package multicell realizes the full geography of the paper's Figure 1:
// several wireless cells, each with its own base station and cache, all
// pulling from the same remote servers, with clients that move between
// cells and occasionally disconnect. Optionally the base stations
// cooperate: on a local cache miss a station copies a neighbouring cell's
// cached entry (staleness preserved) over the fixed network instead of
// reaching the remote server.
//
// # Tick engine
//
// Each tick first advances the shared state: client mobility, the shared
// server's update schedule (whose OnUpdate callbacks decay every cell's
// cache), per-cell request generation, and — with cooperative caching on
// — the sharing snapshot, which reads neighbour caches before any cell
// mutates. Then every cell serves its tick in cell order, each confined
// to its own cache, policy, and metrics shard.
//
// Determinism: every random draw comes either from the population's
// private stream or from one of the per-cell streams derived via a
// splitmix64 chain from Config.Seed, so a run's Report is a pure
// function of its Config.
package multicell

import (
	"fmt"

	"mobicache/internal/basestation"
	"mobicache/internal/cache"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/dissemination"
	"mobicache/internal/fault"
	"mobicache/internal/obs"
	"mobicache/internal/policy"
	"mobicache/internal/resilience"
	"mobicache/internal/rng"
	"mobicache/internal/server"
)

// Config configures a multi-cell system.
type Config struct {
	// Cells is the number of cells (>= 1).
	Cells int
	// Objects is the number of unit-size objects served.
	Objects int
	// UpdatePeriod is the simultaneous update period (0 = default 5).
	UpdatePeriod int
	// BudgetPerTick is each station's per-tick download budget
	// (0 = unlimited).
	BudgetPerTick int64
	// Clients is the mobile population size.
	Clients int
	// Mobility drives residence/handoff/disconnection.
	Mobility client.Mobility
	// RequestProb is each connected client's per-tick request
	// probability.
	RequestProb float64
	// Pattern is the shared popularity skew.
	Pattern rng.Popularity
	// CacheSharing enables cooperative base-station caching.
	CacheSharing bool
	// Solver selects the knapsack algorithm each cell's selector uses
	// (default core.SolverDP). Each cell owns its own selector, so the
	// incremental kinds keep per-cell warm state.
	Solver core.SolverKind
	// Seed drives all randomness.
	Seed uint64
	// CellFaults, when non-nil, schedules whole-cell outages (failure
	// domains above the fetch-path faults). A down cell serves nothing:
	// its clients' requests are rerouted to the nearest live cell
	// (scanning upward mod Cells), it neither donates nor receives
	// cooperative copies, and its cache keeps decaying with master
	// updates so it rejoins stale — exactly what a station that was
	// offline through update traffic should look like. Downtime is a
	// pure function of (cell, tick) and rerouted requests still draw
	// from their home cell's stream, so a schedule with no windows
	// reproduces the fault-free run exactly. Must cover exactly Cells
	// cells.
	CellFaults *fault.CellSchedule
	// NewFetcher, when non-nil, is called once per cell to build that
	// cell's fetch path over the shared server: the Fetcher its station
	// or dissemination cell downloads through, and the retry policy for
	// failed fetches. Per-cell fetchers (rather than one shared one) keep
	// the run deterministic per cell: each cell owns its failure draws, so
	// they depend only on that cell's fetch sequence.
	NewFetcher func(cell int, srv *server.Server) (basestation.Fetcher, basestation.RetryConfig, error)
	// Resilience, when non-nil, arms every cell's station with its own
	// circuit breaker and admission control. A breaker without a
	// NewFetcher gates the fault-free fetch path and never opens.
	Resilience *resilience.Config
	// Metrics, when non-nil, receives live observability updates. The
	// bundle must come from obs.NewMulticellMetrics: each cell writes to
	// its own per-cell shard ({cell="N"} series), and after every tick
	// the shards are merged into the aggregate Station bundle, whose
	// mobicache_ticks_total counts engine ticks — not cell-ticks.
	Metrics *obs.MulticellMetrics
	// Dissemination replaces every cell's knapsack station with a
	// push/broadcast cell of the given strategy (see
	// internal/dissemination). The zero value (OnDemand) keeps stations.
	// Cell faults and per-cell fetch faults still apply; CacheSharing
	// and Resilience guard the stations' caches and fetch paths and do
	// not compose with a push strategy.
	Dissemination dissemination.Strategy
	// DisseminationKnobs tunes the active dissemination strategy (zero
	// values select the package defaults).
	DisseminationKnobs dissemination.Knobs
}

// validate rejects a malformed configuration up front, so errors carry
// multicell context instead of surfacing later from some cell's station
// constructor.
func (cfg *Config) validate() error {
	if cfg.Cells <= 0 {
		return fmt.Errorf("multicell: cells %d must be positive", cfg.Cells)
	}
	if cfg.Objects <= 0 {
		return fmt.Errorf("multicell: objects %d must be positive", cfg.Objects)
	}
	if cfg.Clients <= 0 {
		return fmt.Errorf("multicell: clients %d must be positive", cfg.Clients)
	}
	if cfg.RequestProb < 0 || cfg.RequestProb > 1 {
		return fmt.Errorf("multicell: request probability %v out of [0,1]", cfg.RequestProb)
	}
	if cfg.BudgetPerTick < 0 {
		return fmt.Errorf("multicell: negative per-cell download budget %d", cfg.BudgetPerTick)
	}
	if cfg.UpdatePeriod < 0 {
		return fmt.Errorf("multicell: negative update period %d", cfg.UpdatePeriod)
	}
	if cfg.CellFaults != nil && cfg.CellFaults.Cells() != cfg.Cells {
		return fmt.Errorf("multicell: cell-fault schedule covers %d cells, deployment has %d",
			cfg.CellFaults.Cells(), cfg.Cells)
	}
	if cfg.Resilience != nil {
		if err := cfg.Resilience.Validate(); err != nil {
			return fmt.Errorf("multicell: %w", err)
		}
	}
	if cfg.Dissemination != dissemination.OnDemand {
		if cfg.CacheSharing {
			return fmt.Errorf("multicell: cooperative cache sharing copies station caches; it does not compose with dissemination strategy %q", cfg.Dissemination)
		}
		if cfg.Resilience != nil {
			return fmt.Errorf("multicell: resilience layer guards the stations' fetch paths; it does not compose with dissemination strategy %q", cfg.Dissemination)
		}
	}
	m := cfg.Mobility.WithDefaults()
	if m.MeanResidence < 1 {
		return fmt.Errorf("multicell: mean residence %v must be >= 1", m.MeanResidence)
	}
	if m.PDisconnect < 0 || m.PDisconnect > 1 {
		return fmt.Errorf("multicell: disconnect probability %v out of [0,1]", m.PDisconnect)
	}
	if m.MeanAbsence < 1 {
		return fmt.Errorf("multicell: mean absence %v must be >= 1", m.MeanAbsence)
	}
	return nil
}

// Report aggregates a run.
type Report struct {
	Ticks              int
	Requests           uint64
	Downloads          uint64 // remote-server downloads across all cells
	SharedCopies       uint64 // cooperative copies between stations
	SharedCopyFailures uint64 // cooperative copies the local cache rejected
	MeanScore          float64
	MeanRecency        float64
	Handoffs           uint64
	Drops              uint64
	PerCellScores      []float64
	PerCellRequests    []uint64
	PerCellDownloads   []uint64

	// Resilience accounting (zero without cell faults / breakers /
	// admission control).
	Reroutes        uint64 // requests rerouted from a down cell to a live one
	LostRequests    uint64 // requests lost because every cell was down
	CellDownTicks   uint64 // cell-ticks spent inside a cell outage window
	ShedRequests    uint64 // requests refused by admission control
	ShortCircuits   uint64 // downloads refused outright by open breakers
	BreakerTrips    uint64 // circuit-breaker trips across all cells
	FailedDownloads uint64 // downloads abandoned after retries/timeout
	StaleFallbacks  uint64 // requests served stale because a refresh failed

	// Dissemination accounting (zero on the default on-demand path).
	Dissemination       string // active strategy name ("" = stations)
	InvalidationReports uint64 // invalidation reports broadcast across all cells
	InvalidatedEntries  uint64 // terminal cache entries dropped by reports
	TerminalPurges      uint64 // whole-cache terminal drops
	PushServed          uint64 // requests satisfied by broadcast schedules
	PullServed          uint64 // requests satisfied by pull backchannels
	PushUnits           uint64 // broadcast-channel bandwidth spent
}

// shareOp is one gathered cooperative copy: install src (an entry of some
// neighbour's cache) into cell's cache.
type shareOp struct {
	cell int
	src  *cache.Entry
}

// System is a running multi-cell deployment.
type System struct {
	cfg      Config
	cat      *catalog.Catalog
	srv      *server.Server
	stations []*basestation.Station
	// dcells replaces stations cell-for-cell when a dissemination
	// strategy is active (stations stays empty then).
	dcells []*dissemination.Cell
	// dcellStart snapshots each dissemination cell's stats at Run start
	// so the report covers only the latest Run, like cellTotals.
	dcellStart []dissemination.Stats
	pop        *client.Population
	// cellSrc holds one independent request stream per cell, derived via
	// a splitmix64 chain from cfg.Seed, so a cell's draws depend only on
	// the clients visiting it — never on sibling cells.
	cellSrc []*rng.Source
	sampler *rng.Alias
	merger  *obs.ShardMerger

	shared         uint64
	sharedFailures uint64
	// lastHandoffs/lastDrops remember the population counters at the end
	// of the previous tick so metrics record per-tick deltas.
	lastHandoffs uint64
	lastDrops    uint64

	// breakers holds each cell's circuit breaker (nil entries when
	// resilience is off); the engine reads them for the aggregate
	// breaker-state gauge and the trips report.
	breakers []*resilience.Breaker
	// downNow/rerouteTo are the tick's cell-failure view: downNow[c]
	// marks a cell inside an outage window, rerouteTo[c] is the cell
	// that serves c's requests this tick (c itself when live, -1 when
	// every cell is down). Identity when no CellFaults are scheduled.
	downNow   []bool
	rerouteTo []int
	// Cell-failure totals for the current Run.
	reroutes      uint64
	lost          uint64
	cellDownTicks uint64
	// reroutesNow/lostNow accumulate within one tick's generation walk.
	reroutesNow int
	lostNow     int

	// Reusable per-tick scratch, hoisted out of the tick loop so
	// steady-state ticks allocate nothing.
	perCell    [][]client.Request       // this tick's requests, by cell
	results    []basestation.TickResult // this tick's results, by cell
	cellTotals []basestation.Totals
	seen       []bool       // per-object dedup during the sharing gather
	seenIDs    []catalog.ID // flagged entries, for an O(flags) reset
	pending    []shareOp    // gathered copies, applied after all gathers
	genVisit   func(i, cell int)
	genTick    int
	connected  int
}

// New builds the system: one shared server, one station per cell (each
// with its own unlimited cache, on-demand knapsack policy, fetch path,
// and — when metrics are attached — its own per-cell metrics shard) or
// one dissemination cell per cell under a push strategy, and a mobile
// population spread over the cells.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.UpdatePeriod == 0 {
		cfg.UpdatePeriod = 5
	}
	cfg.Mobility = cfg.Mobility.WithDefaults()
	cat, err := catalog.Uniform(cfg.Objects, 1)
	if err != nil {
		return nil, err
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, cfg.UpdatePeriod))
	sys := &System{
		cfg:        cfg,
		cat:        cat,
		srv:        srv,
		cellSrc:    rng.Streams(cfg.Seed, cfg.Cells),
		sampler:    cfg.Pattern.NewSampler(cat.Len()),
		perCell:    make([][]client.Request, cfg.Cells),
		results:    make([]basestation.TickResult, cfg.Cells),
		cellTotals: make([]basestation.Totals, cfg.Cells),
		seen:       make([]bool, cat.Len()),
		breakers:   make([]*resilience.Breaker, cfg.Cells),
		downNow:    make([]bool, cfg.Cells),
		rerouteTo:  make([]int, cfg.Cells),
	}
	for c := range sys.rerouteTo {
		sys.rerouteTo[c] = c
	}
	var ring *obs.TraceRing
	var shards []*obs.StationMetrics
	if cfg.Metrics != nil {
		ring = cfg.Metrics.Station.Trace
		shards = make([]*obs.StationMetrics, cfg.Cells)
		for c := range shards {
			shards[c] = cfg.Metrics.CellShard(c)
		}
		sys.merger = obs.NewShardMerger(cfg.Metrics.Station, shards)
	}
	for c := 0; c < cfg.Cells; c++ {
		var fetcher basestation.Fetcher
		var retry basestation.RetryConfig
		if cfg.NewFetcher != nil {
			if fetcher, retry, err = cfg.NewFetcher(c, srv); err != nil {
				return nil, fmt.Errorf("multicell: cell %d fetch path: %w", c, err)
			}
		}
		var sm *obs.StationMetrics
		if shards != nil {
			sm = shards[c]
		}
		if cfg.Dissemination != dissemination.OnDemand {
			dc, err := dissemination.New(dissemination.Config{
				Catalog:  cat,
				Strategy: cfg.Dissemination,
				Knobs:    cfg.DisseminationKnobs,
				Fetcher:  fetcher,
				Retry:    retry,
				Metrics:  sm,
				// The same golden-ratio chain the facade's per-cell fault
				// streams use, so sleep draws are per-cell streams
				// independent of the workload.
				Seed: cfg.Seed + uint64(c)*0x9e3779b97f4a7c15,
			})
			if err != nil {
				return nil, fmt.Errorf("multicell: cell %d: %w", c, err)
			}
			sys.dcells = append(sys.dcells, dc)
			continue
		}
		scfg := core.Config{Solver: cfg.Solver, Trace: ring}
		if sm != nil {
			scfg.FullResolves = sm.SolverFullResolves
			scfg.WarmResolves = sm.SolverWarmResolves
		}
		sel, err := core.NewSelector(cat, scfg)
		if err != nil {
			return nil, err
		}
		pol, err := policy.NewOnDemandKnapsack(sel)
		if err != nil {
			return nil, err
		}
		bcfg := basestation.Config{
			Catalog:          cat,
			Server:           srv,
			Policy:           pol,
			BudgetPerTick:    cfg.BudgetPerTick,
			CompulsoryMisses: true,
			Fetcher:          fetcher,
			Retry:            retry,
			Metrics:          sm,
		}
		if cfg.Resilience != nil {
			if cfg.Resilience.Breaker.Enabled() {
				b, err := resilience.NewBreaker(cfg.Resilience.Breaker)
				if err != nil {
					return nil, fmt.Errorf("multicell: %w", err)
				}
				sys.breakers[c] = b
				bcfg.Breaker = b
			}
			bcfg.Admission = cfg.Resilience.Admission
		}
		st, err := basestation.New(bcfg)
		if err != nil {
			return nil, err
		}
		sys.stations = append(sys.stations, st)
	}
	if sys.dcells != nil {
		sys.dcellStart = make([]dissemination.Stats, cfg.Cells)
	}
	pop, err := client.NewPopulation(cfg.Clients, cfg.Cells, cfg.Mobility, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	sys.pop = pop
	// The request-generation visitor is built once so the per-tick
	// population walk allocates no closure. Every draw comes from the
	// client's HOME cell stream even when the request is rerouted to a
	// neighbour, so cell failures never shift any cell's random
	// sequence — a schedule with no active outage reproduces the
	// fault-free run bit for bit.
	sys.genVisit = func(i, cell int) {
		sys.connected++
		src := sys.cellSrc[cell]
		if !src.Bernoulli(sys.cfg.RequestProb) {
			return
		}
		obj := catalog.ID(sys.sampler.Sample(src))
		target := sys.rerouteTo[cell]
		if target < 0 {
			// Every cell is down: the request is lost outright.
			sys.lostNow++
			return
		}
		if target != cell {
			sys.reroutesNow++
		}
		sys.perCell[target] = append(sys.perCell[target], client.Request{
			Client: i,
			Object: obj,
			Target: 1,
			Tick:   sys.genTick,
		})
	}
	return sys, nil
}

// Station returns cell c's base station (for inspection).
func (s *System) Station(c int) *basestation.Station { return s.stations[c] }

// Run executes n ticks and returns the aggregated report. Repeated Runs
// continue the same deployment but restart the tick clock (and therefore
// the update schedule) at zero; totals cover only the latest Run.
func (s *System) Run(n int) (Report, error) { return s.RunSampled(n, nil) }

// RunSampled is Run with a per-tick observer: after every tick, sample
// (when non-nil) receives the 1-based tick count and the report
// aggregated so far. Sampling never perturbs the run — the final report
// is byte-identical to Run(n)'s — but building each intermediate report
// allocates, so it is for offline harnesses (the experiment runner's
// per-tick CSVs), not the hot path. A non-nil error from sample aborts
// the run and is returned.
func (s *System) RunSampled(n int, sample func(ticks int, rep Report) error) (Report, error) {
	for i := range s.cellTotals {
		s.cellTotals[i] = basestation.Totals{}
	}
	for c, dc := range s.dcells {
		s.dcellStart[c] = dc.Stats()
	}
	s.reroutes, s.lost, s.cellDownTicks = 0, 0, 0
	for tick := 0; tick < n; tick++ {
		if err := s.tick(tick); err != nil {
			return Report{}, err
		}
		if sample != nil {
			if err := sample(tick+1, s.report(tick+1)); err != nil {
				return Report{}, err
			}
		}
	}
	return s.report(n), nil
}

// report aggregates the per-cell totals of the current Run into a
// Report covering its first n ticks.
func (s *System) report(n int) Report {
	var rep Report
	rep.Ticks = n
	rep.Handoffs = s.pop.Handoffs()
	rep.Drops = s.pop.Drops()
	rep.SharedCopies = s.shared
	rep.SharedCopyFailures = s.sharedFailures
	rep.Reroutes = s.reroutes
	rep.LostRequests = s.lost
	rep.CellDownTicks = s.cellDownTicks
	var scoreSum, recencySum float64
	for c := range s.cellTotals {
		t := &s.cellTotals[c]
		rep.Requests += t.Requests
		rep.Downloads += t.Downloads()
		scoreSum += t.ScoreSum
		recencySum += t.RecencySum
		rep.PerCellScores = append(rep.PerCellScores, t.MeanScore())
		rep.PerCellRequests = append(rep.PerCellRequests, t.Requests)
		rep.PerCellDownloads = append(rep.PerCellDownloads, t.Downloads())
		rep.ShedRequests += t.Shed
		rep.ShortCircuits += t.ShortCircuits
		rep.BreakerTrips += t.BreakerTrips
		rep.FailedDownloads += t.FailedDownloads
		rep.StaleFallbacks += t.StaleFallbacks
	}
	if rep.Requests > 0 {
		rep.MeanScore = scoreSum / float64(rep.Requests)
		rep.MeanRecency = recencySum / float64(rep.Requests)
	}
	if s.dcells != nil {
		rep.Dissemination = s.cfg.Dissemination.String()
		for c, dc := range s.dcells {
			st, start := dc.Stats(), s.dcellStart[c]
			rep.InvalidationReports += st.ReportsBroadcast - start.ReportsBroadcast
			rep.InvalidatedEntries += st.Invalidated - start.Invalidated
			rep.TerminalPurges += st.Purges - start.Purges
			rep.PushServed += st.PushServed - start.PushServed
			rep.PullServed += st.PullServed - start.PullServed
			rep.PushUnits += st.PushUnits - start.PushUnits
		}
	}
	return rep
}

// tick advances the system one time unit: mobility, server updates,
// request generation and the sharing snapshot, then every cell's
// ServeTick in cell order, then the metrics merge.
func (s *System) tick(tick int) error {
	// Mobility and the shared server tick first: the server's OnUpdate
	// callbacks decay every cell's cache, which must finish before any
	// cell serves.
	s.pop.Tick()
	updated := s.srv.Tick(tick)

	// Cell-failure view for this tick: downtime is a pure function of
	// (cell, tick), and a down cell's requests are rerouted to the
	// nearest live cell scanning upward mod Cells (-1 if none is live).
	if cf := s.cfg.CellFaults; cf != nil {
		down := 0
		for c := range s.downNow {
			s.downNow[c] = cf.Down(c, tick)
			if s.downNow[c] {
				down++
				s.cellDownTicks++
			}
		}
		n := len(s.rerouteTo)
		for c := range s.rerouteTo {
			s.rerouteTo[c] = c
			if !s.downNow[c] {
				continue
			}
			s.rerouteTo[c] = -1
			for k := 1; k < n; k++ {
				if t := (c + k) % n; !s.downNow[t] {
					s.rerouteTo[c] = t
					break
				}
			}
		}
		if m := s.cfg.Metrics; m != nil {
			m.CellsDown.Set(float64(down))
			m.CellDownTicks.Add(uint64(down))
		}
	}

	// Connected clients issue requests to their cell's station, each
	// drawn from the cell's private stream.
	for c := range s.perCell {
		s.perCell[c] = s.perCell[c][:0]
	}
	s.connected = 0
	s.genTick = tick
	s.reroutesNow, s.lostNow = 0, 0
	s.pop.ForEachConnected(s.genVisit)
	s.reroutes += uint64(s.reroutesNow)
	s.lost += uint64(s.lostNow)

	if m := s.cfg.Metrics; m != nil {
		m.Connected.Set(float64(s.connected))
		m.Handoffs.Add(s.pop.Handoffs() - s.lastHandoffs)
		m.Drops.Add(s.pop.Drops() - s.lastDrops)
		s.lastHandoffs, s.lastDrops = s.pop.Handoffs(), s.pop.Drops()
		if s.reroutesNow > 0 {
			m.Reroutes.Add(uint64(s.reroutesNow))
		}
		if s.lostNow > 0 {
			m.LostRequests.Add(uint64(s.lostNow))
		}
	}

	if s.cfg.CacheSharing {
		// Sharing snapshot: gather every cell's copies against the
		// pre-tick cache state, then apply them all. No cell observes a
		// neighbour's same-tick copies, so the outcome is independent of
		// cell order.
		for c := range s.stations {
			s.gatherShared(c, s.perCell[c])
		}
		s.applyShared(float64(tick))
	}

	// Every cell serves its tick against its own cache, policy and
	// metrics shard.
	for c := range s.results {
		if err := s.serveCell(c, tick, updated); err != nil {
			return err
		}
		s.cellTotals[c].Add(s.results[c])
	}

	if m := s.cfg.Metrics; m != nil {
		// The engine owns the aggregate's tick and update counters (one
		// engine tick, one batch of master updates — not one per cell);
		// everything else flows in from the per-cell shards.
		m.Station.Ticks.Inc()
		m.Station.ServerUpdates.Add(uint64(len(updated)))
		s.merger.Merge()
		if s.cfg.Resilience != nil {
			// Aggregate gauges report the deployment's worst cell: the
			// most degraded service mode and the most open breaker.
			// Gauges aren't shard-merged (sums would be meaningless), so
			// the engine sets them after the counter merge.
			var worstMode resilience.Mode
			for c := range s.results {
				if s.downNow[c] {
					continue
				}
				if m := s.results[c].Mode; m > worstMode {
					worstMode = m
				}
			}
			m.Station.ServiceMode.Set(float64(worstMode))
			if s.breakers[0] != nil {
				var worst resilience.State
				for _, b := range s.breakers {
					if st := b.State(tick); st > worst {
						worst = st
					}
				}
				m.Station.BreakerState.Set(float64(worst))
			}
		}
	}
	return nil
}

// serveCell serves cell c's tick through whichever engine backs it,
// writing the cell's result slot. A cell inside an outage window
// serves nothing; a down dissemination cell still observes the tick's
// master updates (server-side knowledge — the downed base station's
// update history keeps accumulating, so its post-recovery report names
// everything its terminals slept through and staleness accounting stays
// honest).
func (s *System) serveCell(c, tick int, updated []catalog.ID) error {
	if s.downNow[c] {
		s.results[c] = basestation.TickResult{Tick: tick}
		if s.dcells != nil {
			s.dcells[c].ObserveUpdates(tick, updated)
		}
		return nil
	}
	var res basestation.TickResult
	var err error
	if s.dcells != nil {
		res, err = s.dcells[c].ServeTick(tick, s.perCell[c], updated)
	} else {
		res, err = s.stations[c].ServeTick(tick, s.perCell[c], updated)
	}
	if err != nil {
		return fmt.Errorf("multicell: cell %d: %w", c, err)
	}
	s.results[c] = res
	return nil
}

// gatherShared scans cell's requested-but-locally-absent objects against
// the pre-tick snapshot of the neighbour caches and queues a copy of the
// freshest remote entry (ties to the lowest donor cell) for applyShared.
func (s *System) gatherShared(cell int, reqs []client.Request) {
	local := s.stations[cell].Cache()
	for _, r := range reqs {
		if s.seen[r.Object] || local.Contains(r.Object) {
			continue
		}
		s.seen[r.Object] = true
		s.seenIDs = append(s.seenIDs, r.Object)
		var best *cache.Entry
		for o, other := range s.stations {
			// A down cell donates nothing: its station is unreachable
			// over the fixed network, cache contents notwithstanding.
			if o == cell || s.downNow[o] {
				continue
			}
			if e, ok := other.Cache().Peek(r.Object); ok {
				if best == nil || e.Recency > best.Recency {
					best = e
				}
			}
		}
		if best != nil {
			s.pending = append(s.pending, shareOp{cell: cell, src: best})
		}
	}
	for _, id := range s.seenIDs {
		s.seen[id] = false
	}
	s.seenIDs = s.seenIDs[:0]
}

// applyShared installs the gathered copies. A rejected copy (a bounded
// local cache can refuse the insert) is counted, not dropped silently:
// cooperative sharing that quietly does nothing looks identical to a
// neighbourhood with no useful copies.
func (s *System) applyShared(now float64) {
	m := s.cfg.Metrics
	for _, op := range s.pending {
		if err := s.stations[op.cell].Cache().PutCopy(op.src, now); err != nil {
			s.sharedFailures++
			if m != nil {
				m.SharedCopyFailures.Inc()
			}
			continue
		}
		s.shared++
		if m != nil {
			m.SharedCopies.Inc()
		}
	}
	s.pending = s.pending[:0]
}
