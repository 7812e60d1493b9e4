package mobicache

import (
	"mobicache/internal/basestation"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/dissemination"
	"mobicache/internal/multicell"
	"mobicache/internal/rng"
	"mobicache/internal/server"
)

// MulticellConfig configures a multi-cell deployment: several wireless
// cells, each with its own base station and cache, one shared set of
// remote servers, and a mobile client population that moves between cells
// and occasionally disconnects (the full geography of the paper's
// Figure 1).
type MulticellConfig struct {
	// Cells is the number of cells (>= 1).
	Cells int
	// Objects is the number of unit-size objects served.
	Objects int
	// UpdatePeriod is the simultaneous server-update period (default 5).
	UpdatePeriod int
	// BudgetPerTick is each station's download budget (0 = unlimited).
	BudgetPerTick int64
	// Clients is the mobile population size.
	Clients int
	// MeanResidence is the mean ticks a client stays in one cell
	// (default 200).
	MeanResidence float64
	// PDisconnect is the probability a departure disconnects rather than
	// hands off (default 0.2). A literal 0 is indistinguishable from
	// "unset" and takes the default; pass NeverDisconnect for an explicit
	// zero disconnection probability.
	PDisconnect float64
	// MeanAbsence is the mean ticks a disconnected client stays away
	// (default 50).
	MeanAbsence float64
	// RequestProb is each connected client's per-tick request probability.
	RequestProb float64
	// Access is the popularity skew: "uniform" (default), "linear", "zipf".
	Access string
	// CacheSharing lets base stations copy entries from neighbouring
	// cells on a miss instead of reaching the remote server.
	CacheSharing bool
	// Solver selects the knapsack algorithm behind every cell's
	// selection: "dp" (default), "greedy", "incremental", or
	// "certified". See SimulationConfig.Solver.
	Solver string
	// Ticks is the simulated duration.
	Ticks int
	// Seed drives all randomness.
	Seed uint64
	// CellOutages schedules whole-cell failure domains: a down cell
	// serves nothing and its clients' requests are rerouted to the
	// nearest live cell (see CellOutage). Windows on the same cell must
	// not overlap.
	CellOutages []CellOutage
	// Fault, when non-nil, injects deterministic faults into every cell's
	// fixed-network fetch path, latency model included. Each cell gets its
	// own failure stream (same windows, different draws), so cells don't
	// fail in lockstep.
	Fault *FaultConfig
	// Resilience, when non-nil, arms every cell's station with its own
	// circuit breaker and admission control (see ResilienceConfig).
	Resilience *ResilienceConfig
	// Metrics, when non-nil, receives live observability updates from
	// every cell: each cell writes its own {cell="N"}-labeled series,
	// merged into the aggregate station bundle every tick. Build one with
	// NewMulticellMetrics.
	Metrics *MulticellMetrics
	// Dissemination, when non-nil and naming a non-default strategy,
	// replaces every cell's knapsack station with a push/broadcast cell
	// (see DisseminationConfig). Cell outages and fetch faults still
	// apply; CacheSharing and Resilience do not compose with it.
	Dissemination *DisseminationConfig
}

// NeverDisconnect is the MulticellConfig.PDisconnect sentinel for "clients
// never disconnect" — an explicit probability of zero, which a literal 0
// cannot express because it means "use the default".
const NeverDisconnect = client.NeverDisconnect

// MulticellReport aggregates a multi-cell run.
type MulticellReport struct {
	Ticks              int
	Requests           uint64
	Downloads          uint64 // remote-server downloads across all cells
	SharedCopies       uint64 // cooperative copies between base stations
	SharedCopyFailures uint64 // cooperative copies the local cache rejected
	MeanScore          float64
	MeanRecency        float64
	Handoffs           uint64
	Drops              uint64
	PerCellScores      []float64
	PerCellRequests    []uint64
	PerCellDownloads   []uint64

	// Resilience accounting (all zero without CellOutages / Fault /
	// Resilience configs).
	Reroutes        uint64 // requests rerouted from a down cell to a live one
	LostRequests    uint64 // requests lost because every cell was down
	CellDownTicks   uint64 // cell-ticks spent inside a cell outage window
	ShedRequests    uint64 // requests refused by admission control
	ShortCircuits   uint64 // downloads refused outright by open breakers
	BreakerTrips    uint64 // circuit-breaker trips across all cells
	FailedDownloads uint64 // downloads abandoned after retries/timeout
	StaleFallbacks  uint64 // requests served stale because a refresh failed

	// Dissemination accounting (all zero on the default on-demand path).
	Dissemination       string // active strategy name ("" = stations)
	InvalidationReports uint64 // invalidation reports broadcast across all cells
	InvalidatedEntries  uint64 // terminal cache entries dropped by reports
	TerminalPurges      uint64 // whole-cache terminal drops
	PushServed          uint64 // requests satisfied by broadcast schedules
	PullServed          uint64 // requests satisfied by pull backchannels
	PushUnits           uint64 // broadcast-channel bandwidth spent
}

// RunMulticell builds and runs the configured deployment.
func RunMulticell(cfg MulticellConfig) (MulticellReport, error) {
	sys, err := buildMulticell(cfg)
	if err != nil {
		return MulticellReport{}, err
	}
	r, err := sys.Run(cfg.Ticks)
	if err != nil {
		return MulticellReport{}, err
	}
	return multicellReport(r), nil
}

// buildMulticell compiles the public configuration into a running
// internal/multicell System (shared by RunMulticell and
// RunMulticellTicks).
func buildMulticell(cfg MulticellConfig) (*multicell.System, error) {
	pattern, err := parseAccess(cfg.Access)
	if err != nil {
		return nil, err
	}
	solver, err := core.ParseSolver(cfg.Solver)
	if err != nil {
		return nil, err
	}
	mobility := client.Mobility{
		MeanResidence: cfg.MeanResidence,
		PDisconnect:   cfg.PDisconnect,
		MeanAbsence:   cfg.MeanAbsence,
	}.WithDefaults()
	mcfg := multicell.Config{
		Cells:         cfg.Cells,
		Objects:       cfg.Objects,
		UpdatePeriod:  cfg.UpdatePeriod,
		BudgetPerTick: cfg.BudgetPerTick,
		Clients:       cfg.Clients,
		Mobility:      mobility,
		RequestProb:   cfg.RequestProb,
		Pattern:       rng.Popularity(pattern),
		CacheSharing:  cfg.CacheSharing,
		Solver:        solver,
		Seed:          cfg.Seed,
		Metrics:       cfg.Metrics,
	}
	if len(cfg.CellOutages) > 0 {
		cs, err := cellSchedule(cfg.Cells, cfg.CellOutages)
		if err != nil {
			return nil, err
		}
		mcfg.CellFaults = cs
	}
	if cfg.Fault != nil {
		f, seed := cfg.Fault, cfg.Seed
		mcfg.NewFetcher = func(cell int, srv *server.Server) (basestation.Fetcher, RetryConfig, error) {
			return f.fetchPath(srv, seed, uint64(cell))
		}
	}
	if cfg.Resilience != nil {
		mcfg.Resilience = cfg.Resilience.internal()
	}
	if strat, err := cfg.Dissemination.strategy(); err != nil {
		return nil, err
	} else if strat != dissemination.OnDemand {
		mcfg.Dissemination = strat
		mcfg.DisseminationKnobs = cfg.Dissemination.knobs()
	}
	return multicell.New(mcfg)
}

// multicellReport converts the internal report into the public type.
func multicellReport(r multicell.Report) MulticellReport {
	return MulticellReport{
		Ticks:              r.Ticks,
		Requests:           r.Requests,
		Downloads:          r.Downloads,
		SharedCopies:       r.SharedCopies,
		SharedCopyFailures: r.SharedCopyFailures,
		MeanScore:          r.MeanScore,
		MeanRecency:        r.MeanRecency,
		Handoffs:           r.Handoffs,
		Drops:              r.Drops,
		PerCellScores:      r.PerCellScores,
		PerCellRequests:    r.PerCellRequests,
		PerCellDownloads:   r.PerCellDownloads,
		Reroutes:           r.Reroutes,
		LostRequests:       r.LostRequests,
		CellDownTicks:      r.CellDownTicks,
		ShedRequests:       r.ShedRequests,
		ShortCircuits:      r.ShortCircuits,
		BreakerTrips:       r.BreakerTrips,
		FailedDownloads:    r.FailedDownloads,
		StaleFallbacks:     r.StaleFallbacks,

		Dissemination:       r.Dissemination,
		InvalidationReports: r.InvalidationReports,
		InvalidatedEntries:  r.InvalidatedEntries,
		TerminalPurges:      r.TerminalPurges,
		PushServed:          r.PushServed,
		PullServed:          r.PullServed,
		PushUnits:           r.PushUnits,
	}
}
