package mobicache

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
	"mobicache/internal/recency"
	"mobicache/internal/resilience"
	"mobicache/internal/rng"
	"mobicache/internal/server"
)

// RetryConfig governs retries of failed remote fetches (see
// basestation.RetryConfig). The zero value means one attempt, no backoff,
// no timeout.
type RetryConfig = basestation.RetryConfig

// AllServers targets every upstream server in a FaultWindow or
// FaultSpike.
const AllServers = fault.AllServers

// FaultWindow is a half-open tick interval [From, To) of faulty behavior
// on one upstream server (or AllServers). If Every > 0 the window repeats
// with that period, which models a flapping server.
type FaultWindow struct {
	Server   int
	From, To int
	Every    int
}

// FaultSpike multiplies fetch latency by Factor inside its window.
type FaultSpike struct {
	FaultWindow
	Factor float64
}

// FaultConfig enables deterministic fault injection on the fixed-network
// fetch path. The catalog is partitioned over Servers logical upstream
// servers (object id mod Servers); outages, latency spikes, per-request
// failures, and post-outage slow-start throttling are all seeded and
// replayable. A failed download degrades gracefully: the affected
// requests are served the stale cached copy, scored by the recency curve
// instead of 1.0.
type FaultConfig struct {
	// Servers is the number of logical upstream servers (default 1).
	Servers int
	// Seed drives the per-request failure streams; 0 derives one from
	// the simulation seed.
	Seed uint64
	// FailureProb makes every fetch fail independently with this
	// probability, on every server.
	FailureProb float64
	// Outages are total-outage windows; fetches inside them are refused.
	Outages []FaultWindow
	// Spikes are latency-spike windows.
	Spikes []FaultSpike
	// SlowStartTicks and SlowStartFactor throttle a server after each
	// outage ends: latency is multiplied by a factor decaying linearly
	// from SlowStartFactor to 1 over SlowStartTicks ticks.
	SlowStartTicks  int
	SlowStartFactor float64
	// BaseLatency and PerUnitLatency give the fault-free fetch latency:
	// BaseLatency + PerUnitLatency x object size, in simulated time.
	BaseLatency    float64
	PerUnitLatency float64
	// Retry governs the station's retry/backoff/timeout behavior.
	Retry RetryConfig
}

// fetchPath compiles the configuration into cell's fault-injected fetch
// path over srv: a seeded fault.Schedule, the fault-free latency model,
// and the station's retry policy. Both engines build their fetch paths
// here. Each cell of a multi-cell deployment gets identical windows and
// probabilities but its own failure stream (splitmix64 golden-ratio
// mixing), so cells don't fail in lockstep unless their outage windows
// say so. A nil config is the paper's ideal path: no Fetcher at all.
func (f *FaultConfig) fetchPath(srv *server.Server, simSeed, cell uint64) (basestation.Fetcher, RetryConfig, error) {
	if f == nil {
		return nil, RetryConfig{}, nil
	}
	servers := f.Servers
	if servers == 0 {
		servers = 1
	}
	seed := f.Seed
	if seed == 0 {
		// An independent stream: faults must not perturb the workload rng.
		seed = simSeed ^ 0x5fa17bea7e12c0de
	}
	seed += cell * 0x9e3779b97f4a7c15
	sched, err := fault.NewSchedule(servers, seed)
	if err != nil {
		return nil, RetryConfig{}, err
	}
	if f.FailureProb != 0 {
		if err := sched.SetFailureProb(fault.AllServers, f.FailureProb); err != nil {
			return nil, RetryConfig{}, err
		}
	}
	for _, w := range f.Outages {
		if err := sched.AddOutage(w.Server, fault.Window{From: w.From, To: w.To, Every: w.Every}); err != nil {
			return nil, RetryConfig{}, err
		}
	}
	for _, sp := range f.Spikes {
		if err := sched.AddSpike(sp.Server, fault.Window{From: sp.From, To: sp.To, Every: sp.Every}, sp.Factor); err != nil {
			return nil, RetryConfig{}, err
		}
	}
	if f.SlowStartTicks != 0 || f.SlowStartFactor != 0 {
		if err := sched.SetSlowStart(fault.AllServers, f.SlowStartTicks, f.SlowStartFactor); err != nil {
			return nil, RetryConfig{}, err
		}
	}
	var latency server.LatencyModel
	if f.BaseLatency != 0 || f.PerUnitLatency != 0 {
		latency = server.SizeProportionalLatency{Setup: f.BaseLatency, PerUnit: f.PerUnitLatency}
	}
	fs, err := server.NewFaultyServer(srv, sched, latency)
	if err != nil {
		return nil, RetryConfig{}, err
	}
	return fs, f.Retry, nil
}

// DisseminationConfig selects how the cell delivers data to its clients.
// The zero value (or Strategy "on-demand") keeps the paper's pull
// architecture: the knapsack-driven base station cache. Any other
// strategy replaces the station with a push/broadcast cell from
// internal/dissemination: "push-ts" and "push-at" keep terminal caches
// consistent with periodic invalidation reports (Barbara & Imielinski),
// "broadcast-flat" and "broadcast-disk" air the catalog on a schedule
// clients wait for, and "hybrid-pushpull" adds a pull backchannel to the
// multi-disk schedule. Under a push strategy the pull-side knobs
// (Policy, Solver, BudgetPerTick, CacheCapacity) are inert.
type DisseminationConfig struct {
	// Strategy is one of "on-demand" (default), "push-ts", "push-at",
	// "broadcast-flat", "broadcast-disk", or "hybrid-pushpull".
	Strategy string
	// Interval is the invalidation-report period in ticks (push
	// strategies; default 10).
	Interval int
	// Window is the TS report window in intervals (default 2; push-at
	// always uses 1).
	Window int
	// SlotsPerTick is how many broadcast slots air per tick (broadcast
	// strategies; default 4).
	SlotsPerTick int
	// PullEvery dedicates every n-th hybrid slot to the pull backchannel
	// (default 4).
	PullEvery int
	// Threshold is the hybrid push wait above which clients pull
	// (default catalog/8).
	Threshold int
	// SleepProb is the per-report probability that the terminal
	// population sleeps through an invalidation report.
	SleepProb float64
}

// strategy parses the configured name; a nil config is on-demand.
func (d *DisseminationConfig) strategy() (dissemination.Strategy, error) {
	if d == nil {
		return dissemination.OnDemand, nil
	}
	s, err := dissemination.ParseStrategy(d.Strategy)
	if err != nil {
		return s, fmt.Errorf("mobicache: %w", err)
	}
	return s, nil
}

// knobs maps the public tuning fields onto the internal knob set.
func (d *DisseminationConfig) knobs() dissemination.Knobs {
	return dissemination.Knobs{
		Interval:     d.Interval,
		Window:       d.Window,
		SlotsPerTick: d.SlotsPerTick,
		PullEvery:    d.PullEvery,
		Threshold:    d.Threshold,
		SleepProb:    d.SleepProb,
	}
}

// SimulationConfig configures a tick-based simulation of the paper's
// architecture: remote servers updating objects on a schedule, a base
// station cache, a refresh policy with a per-tick download budget, and a
// stream of client requests.
type SimulationConfig struct {
	// Objects is the catalog size; all objects have unit size unless
	// Sizes is set.
	Objects int
	// Sizes optionally gives explicit object sizes (overrides Objects).
	Sizes []int64
	// UpdatePeriod is the simultaneous server-update period in ticks
	// (default 5, the paper's Section 3 value).
	UpdatePeriod int
	// Policy selects the refresh strategy: "on-demand-knapsack"
	// (default), "on-demand-stale", "on-demand-lowest-recency",
	// "async-round-robin", "async-freshness", "async-on-update", or
	// "hybrid".
	Policy string
	// HybridFraction is the on-demand share of the budget for "hybrid"
	// (default 0.5).
	HybridFraction float64
	// Solver selects the knapsack algorithm behind the knapsack-backed
	// policies: "dp" (default, the paper's exact dynamic program),
	// "greedy", "incremental" (exact warm-start solving that
	// reuses the previous tick's DP state), or "certified" (warm-start
	// plus an approximate first pass accepted only when provably within
	// 1-eps of optimal).
	Solver string
	// BudgetPerTick caps downloaded data units per tick (0 = unlimited).
	BudgetPerTick int64
	// RequestsPerTick is the client request rate.
	RequestsPerTick int
	// Access is the popularity skew: "uniform" (default), "linear", or
	// "zipf".
	Access string
	// TargetLo/TargetHi draw client target recencies uniformly; both 0
	// means every client demands fully fresh data (target 1.0).
	TargetLo, TargetHi float64
	// CacheCapacity bounds the cache in data units (0 = unlimited).
	CacheCapacity int64
	// Replacement selects the eviction policy for a bounded cache:
	// "lru" (default), "lfu", "size", "stalest", or "gds".
	Replacement string
	// Warmup ticks run before measurement; Ticks are measured.
	Warmup, Ticks int
	// Seed drives all randomness.
	Seed uint64
	// Fault, when non-nil, injects deterministic faults into the
	// fixed-network fetch path (outages, latency spikes, per-request
	// failures). Nil keeps the paper's ideal always-answering servers.
	Fault *FaultConfig
	// Resilience, when non-nil, arms the station with a circuit breaker
	// and admission control (see ResilienceConfig). A breaker without a
	// Fault config runs over a fault-free fetch path and never opens.
	Resilience *ResilienceConfig
	// Metrics, when non-nil, receives live observability updates from the
	// station (counters, histograms, the decision-trace ring). Build one
	// with NewStationMetrics; nil disables instrumentation entirely and
	// keeps the hot path branch-cheap.
	Metrics *StationMetrics
	// Dissemination, when non-nil and naming a non-default strategy,
	// replaces the pull-based station with a push/broadcast cell. Nil (or
	// Strategy "on-demand") is the paper's architecture, bit-for-bit.
	Dissemination *DisseminationConfig
}

// SimulationReport summarizes the measured phase of a simulation.
type SimulationReport struct {
	Ticks         int
	Requests      uint64
	Downloads     uint64
	DownloadUnits int64
	MeanScore     float64 // mean per-request client score
	MeanRecency   float64 // mean recency of delivered data
	CacheHitRate  float64 // cache hits / lookups over the whole run
	ServerUpdates uint64  // object updates applied during the whole run

	// Fault-path counters (all zero without a FaultConfig).
	FailedDownloads  uint64  // downloads abandoned after retries/timeout
	Retries          uint64  // extra fetch attempts beyond the first
	StaleFallbacks   uint64  // requests served a stale copy because the refresh failed
	MeanFetchLatency float64 // mean simulated fetch time per download (attempts + backoff)

	// Resilience counters (all zero without a ResilienceConfig).
	ShedRequests  uint64 // requests refused by admission control
	ShortCircuits uint64 // downloads refused outright by an open breaker
	BreakerTrips  uint64 // times the circuit breaker tripped open
	BreakerProbes uint64 // half-open probe downloads attempted
	DegradedTicks uint64 // ticks served in stale-only mode (breaker open)
	ShedTicks     uint64 // ticks on which at least one request was shed

	// Dissemination counters (all zero on the default on-demand path).
	Dissemination       string  // active strategy name ("" = on-demand station)
	InvalidationReports uint64  // invalidation reports broadcast
	InvalidatedEntries  uint64  // terminal cache entries dropped by reports
	TerminalPurges      uint64  // whole-cache terminal drops
	PushServed          uint64  // requests satisfied by the broadcast schedule
	PullServed          uint64  // requests satisfied by the pull backchannel
	PushUnits           uint64  // broadcast-channel bandwidth spent
	MeanWaitSlots       float64 // mean broadcast wait per served request, in slots
}

// RunSimulation builds and runs the configured system, returning the
// measured-phase report.
func RunSimulation(cfg SimulationConfig) (SimulationReport, error) {
	return RunSimulationTicks(cfg, nil)
}

// cellEngine is what the single-cell tick loop drives: the knapsack
// station or a push/broadcast dissemination cell.
type cellEngine interface {
	ServeTick(tick int, reqs []client.Request, updated []catalog.ID) (basestation.TickResult, error)
}

// singleCell is one built cell of the paper's Figure 1 architecture: the
// update server and the engine serving the cell's clients.
type singleCell struct {
	srv *server.Server
	eng cellEngine
}

// buildCell assembles catalog, update server and fetch path, then either
// the knapsack station or, under a push strategy, a dissemination cell.
// It is the one builder behind every single-cell entry point, so live,
// sampled and replayed runs answer the same question under the same load.
func buildCell(cfg SimulationConfig) (*singleCell, error) {
	strat, err := cfg.Dissemination.strategy()
	if err != nil {
		return nil, err
	}
	if strat != dissemination.OnDemand {
		if cfg.Policy != "" {
			return nil, fmt.Errorf("mobicache: policy %q conflicts with dissemination strategy %q (push strategies replace the refresh policy)", cfg.Policy, strat)
		}
		if cfg.Resilience != nil {
			return nil, fmt.Errorf("mobicache: resilience layer guards the station's fetch path; it does not compose with dissemination strategy %q", strat)
		}
	}
	cat, err := buildCatalog(cfg)
	if err != nil {
		return nil, err
	}
	period := cfg.UpdatePeriod
	if period == 0 {
		period = 5
	}
	if period < 0 {
		return nil, fmt.Errorf("mobicache: negative update period %d", period)
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, period))
	fetcher, retry, err := cfg.Fault.fetchPath(srv, cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	c := &singleCell{srv: srv}
	if strat != dissemination.OnDemand {
		c.eng, err = dissemination.New(dissemination.Config{
			Catalog:  cat,
			Strategy: strat,
			Knobs:    cfg.Dissemination.knobs(),
			Fetcher:  fetcher,
			Retry:    retry,
			Metrics:  cfg.Metrics,
			Seed:     cfg.Seed,
		})
	} else {
		c.eng, err = newStation(cfg, cat, srv, fetcher, retry)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// run is the single-cell tick loop: it serves ticks [from, to) with each
// tick's requests from reqs. Ticks before warmup are served but not
// measured; a non-nil sample sees the report after every measured tick
// (1-based count) and aborts the run by returning an error. Sampling
// never perturbs the run.
func (c *singleCell) run(from, to, warmup int, reqs func(tick int) []client.Request, sample func(int, SimulationReport) error) (SimulationReport, error) {
	var totals basestation.Totals
	var warm dissemination.Stats
	for tick := from; tick < to; tick++ {
		res, err := c.eng.ServeTick(tick, reqs(tick), c.srv.Tick(tick))
		if err != nil {
			return SimulationReport{}, err
		}
		if tick < warmup {
			if dc, ok := c.eng.(*dissemination.Cell); ok {
				warm = dc.Stats()
			}
			continue
		}
		totals.Add(res)
		if sample != nil {
			if err := sample(totals.Ticks, c.report(totals, warm)); err != nil {
				return SimulationReport{}, err
			}
		}
	}
	return c.report(totals, warm), nil
}

// report folds the measured-phase totals and the engine's own counters
// into the public report. warm is a dissemination cell's counters at the
// end of warmup.
func (c *singleCell) report(totals basestation.Totals, warm dissemination.Stats) SimulationReport {
	rep := SimulationReport{
		Ticks:           totals.Ticks,
		Requests:        totals.Requests,
		Downloads:       totals.Downloads(),
		DownloadUnits:   totals.DownloadUnits,
		MeanScore:       totals.MeanScore(),
		MeanRecency:     totals.MeanRecency(),
		ServerUpdates:   c.srv.TotalUpdates(),
		FailedDownloads: totals.FailedDownloads,
		Retries:         totals.Retries,
		StaleFallbacks:  totals.StaleFallbacks,
		ShedRequests:    totals.Shed,
		ShortCircuits:   totals.ShortCircuits,
		BreakerTrips:    totals.BreakerTrips,
		BreakerProbes:   totals.BreakerProbes,
		DegradedTicks:   totals.DegradedTicks,
		ShedTicks:       totals.ShedTicks,
	}
	if fetches := rep.Downloads + rep.FailedDownloads; fetches > 0 {
		rep.MeanFetchLatency = totals.FetchLatency / float64(fetches)
	}
	switch e := c.eng.(type) {
	case *basestation.Station:
		stats := e.Cache().Stats()
		if lookups := stats.Hits + stats.Misses; lookups > 0 {
			rep.CacheHitRate = float64(stats.Hits) / float64(lookups)
		}
	case *dissemination.Cell:
		st := e.Stats()
		rep.Dissemination = e.Strategy().String()
		rep.InvalidationReports = st.ReportsBroadcast - warm.ReportsBroadcast
		rep.InvalidatedEntries = st.Invalidated - warm.Invalidated
		rep.TerminalPurges = st.Purges - warm.Purges
		rep.PushServed = st.PushServed - warm.PushServed
		rep.PullServed = st.PullServed - warm.PullServed
		rep.PushUnits = st.PushUnits - warm.PushUnits
		if served := rep.PushServed + rep.PullServed; served > 0 {
			rep.MeanWaitSlots = float64(st.WaitSlots-warm.WaitSlots) / float64(served)
		}
	}
	return rep
}

// validateHorizon checks the warmup/measurement horizon. It runs before
// any component is built so an invalid horizon is reported identically by
// RunSimulation and GenerateTrace, regardless of the rest of the config.
func validateHorizon(cfg SimulationConfig) error {
	if cfg.Warmup < 0 || cfg.Ticks <= 0 {
		return fmt.Errorf("mobicache: warmup %d / ticks %d invalid", cfg.Warmup, cfg.Ticks)
	}
	return nil
}

// buildCatalog resolves the configured object sizes.
func buildCatalog(cfg SimulationConfig) (*catalog.Catalog, error) {
	sizes := cfg.Sizes
	if sizes == nil {
		if cfg.Objects <= 0 {
			return nil, fmt.Errorf("mobicache: simulation needs Objects or Sizes")
		}
		sizes = make([]int64, cfg.Objects)
		for i := range sizes {
			sizes[i] = 1
		}
	}
	return catalog.New(sizes)
}

// newStation builds the knapsack station of a cell: refresh policy,
// cache, and the resilience layer guarding the given fetch path.
func newStation(cfg SimulationConfig, cat *catalog.Catalog, srv *server.Server, fetcher basestation.Fetcher, retry RetryConfig) (*basestation.Station, error) {
	pol, err := buildPolicy(cfg, cat)
	if err != nil {
		return nil, err
	}
	c, err := buildCache(cfg)
	if err != nil {
		return nil, err
	}
	bcfg := basestation.Config{
		Catalog:          cat,
		Server:           srv,
		Policy:           pol,
		Cache:            c,
		BudgetPerTick:    cfg.BudgetPerTick,
		CompulsoryMisses: cfg.CacheCapacity == 0,
		Fetcher:          fetcher,
		Retry:            retry,
		Metrics:          cfg.Metrics,
	}
	if cfg.Resilience != nil {
		rc := cfg.Resilience.internal()
		if err := rc.Validate(); err != nil {
			return nil, fmt.Errorf("mobicache: %w", err)
		}
		if rc.Breaker.Enabled() {
			b, err := resilience.NewBreaker(rc.Breaker)
			if err != nil {
				return nil, fmt.Errorf("mobicache: %w", err)
			}
			bcfg.Breaker = b
		}
		bcfg.Admission = rc.Admission
	}
	return basestation.New(bcfg)
}

// buildGenerator assembles the client request generator.
func buildGenerator(cfg SimulationConfig) (*client.Generator, *catalog.Catalog, error) {
	cat, err := buildCatalog(cfg)
	if err != nil {
		return nil, nil, err
	}
	pattern, err := parseAccess(cfg.Access)
	if err != nil {
		return nil, nil, err
	}
	var targets client.TargetDist
	if cfg.TargetLo != 0 || cfg.TargetHi != 0 {
		if cfg.TargetLo <= 0 || cfg.TargetHi > 1 || cfg.TargetHi < cfg.TargetLo {
			return nil, nil, fmt.Errorf("mobicache: target range [%v,%v] out of (0,1]", cfg.TargetLo, cfg.TargetHi)
		}
		targets = client.UniformTargets{Lo: cfg.TargetLo, Hi: cfg.TargetHi}
	}
	gen, err := client.NewGenerator(client.GeneratorConfig{
		Catalog:     cat,
		Pattern:     pattern,
		RatePerTick: cfg.RequestsPerTick,
		Targets:     targets,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return gen, cat, nil
}

func buildPolicy(cfg SimulationConfig, cat *catalog.Catalog) (policy.Policy, error) {
	name := cfg.Policy
	if name == "" {
		name = "on-demand-knapsack"
	}
	switch name {
	case "on-demand-stale":
		return policy.OnDemandStale{}, nil
	case "on-demand-lowest-recency":
		return policy.OnDemandLowestRecency{}, nil
	case "async-round-robin":
		return &policy.AsyncRoundRobin{}, nil
	case "async-freshness":
		return policy.AsyncFreshness{}, nil
	case "async-on-update":
		return policy.AsyncOnUpdate{}, nil
	case "on-demand-knapsack":
		scfg, err := selectorConfig(cfg)
		if err != nil {
			return nil, err
		}
		sel, err := core.NewSelector(cat, scfg)
		if err != nil {
			return nil, err
		}
		return policy.NewOnDemandKnapsack(sel)
	case "hybrid":
		scfg, err := selectorConfig(cfg)
		if err != nil {
			return nil, err
		}
		sel, err := core.NewSelector(cat, scfg)
		if err != nil {
			return nil, err
		}
		frac := cfg.HybridFraction
		if frac == 0 {
			frac = 0.5
		}
		return policy.NewHybrid(sel, frac)
	default:
		return nil, fmt.Errorf("mobicache: unknown policy %q", name)
	}
}

// selectorConfig assembles the selector configuration shared by the
// knapsack-backed policies: the configured solver kind, the decision
// trace, and — when metrics are on — the full/warm resolve counters.
func selectorConfig(cfg SimulationConfig) (core.Config, error) {
	kind, err := core.ParseSolver(cfg.Solver)
	if err != nil {
		return core.Config{}, err
	}
	c := core.Config{Solver: kind, Trace: traceRing(cfg)}
	if cfg.Metrics != nil {
		c.FullResolves = cfg.Metrics.SolverFullResolves
		c.WarmResolves = cfg.Metrics.SolverWarmResolves
	}
	return c, nil
}

// traceRing extracts the decision-trace ring from the configured metrics
// bundle, if any, so knapsack selections record why each candidate was
// fetched or left stale.
func traceRing(cfg SimulationConfig) *obs.TraceRing {
	if cfg.Metrics == nil {
		return nil
	}
	return cfg.Metrics.Trace
}

func buildCache(cfg SimulationConfig) (*cache.Cache, error) {
	if cfg.CacheCapacity == 0 {
		return cache.Unlimited(), nil
	}
	var pol cache.Policy
	switch cfg.Replacement {
	case "", "lru":
		pol = cache.NewLRU()
	case "lfu":
		pol = cache.NewLFU()
	case "size":
		pol = cache.NewSizeBased()
	case "stalest":
		pol = cache.NewStalestFirst()
	case "gds":
		pol = cache.NewGDS()
	default:
		return nil, fmt.Errorf("mobicache: unknown replacement policy %q", cfg.Replacement)
	}
	return cache.New(cfg.CacheCapacity, recency.DefaultDecay, pol)
}

func parseAccess(name string) (rng.Popularity, error) {
	switch name {
	case "", "uniform":
		return rng.Uniform, nil
	case "linear", "skewed", "skewed(uniform)":
		return rng.Linear, nil
	case "zipf", "skewed(zipf)":
		return rng.Zipf, nil
	default:
		return 0, fmt.Errorf("mobicache: unknown access pattern %q", name)
	}
}
