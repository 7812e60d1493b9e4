package experiment

import (
	"fmt"
	"slices"
	"time"

	"mobicache/internal/basestation"
	"mobicache/internal/cache"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/knapsack"
	"mobicache/internal/metrics"
	"mobicache/internal/policy"
	"mobicache/internal/recency"
	"mobicache/internal/rng"
	"mobicache/internal/server"
	"mobicache/internal/workload"
)

// ReplacementConfig parameterizes the limited-cache study (the paper's
// future-work question: "developing caching policies when cache space at
// the base station is limited").
type ReplacementConfig struct {
	// Objects and SizeLo/SizeHi define the catalog (sized objects make
	// replacement interesting).
	Objects        int
	SizeLo, SizeHi int
	// Fractions are the cache capacities to test, as fractions of the
	// total catalog size.
	Fractions []float64
	// RatePerTick, UpdatePeriod, Warmup, Measure mirror Figure 3.
	RatePerTick  int
	UpdatePeriod int
	Warmup       int
	Measure      int
	// BudgetPerTick caps per-tick downloads.
	BudgetPerTick int64
	Seed          uint64
}

// DefaultReplacement returns the study's default configuration.
func DefaultReplacement() ReplacementConfig {
	return ReplacementConfig{
		Objects:       500,
		SizeLo:        1,
		SizeHi:        20,
		Fractions:     []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8},
		RatePerTick:   100,
		UpdatePeriod:  5,
		Warmup:        100,
		Measure:       200,
		BudgetPerTick: 200,
		Seed:          5000,
	}
}

// Replacement runs the limited-cache study: mean client score versus
// cache capacity for each replacement policy, under a zipf workload with
// the on-demand knapsack download policy.
func Replacement(cfg ReplacementConfig) (*metrics.Figure, error) {
	if cfg.Objects <= 0 || len(cfg.Fractions) == 0 {
		return nil, fmt.Errorf("experiment: invalid replacement config %+v", cfg)
	}
	src := rng.New(cfg.Seed)
	sizes64 := make([]int64, cfg.Objects)
	for i := range sizes64 {
		sizes64[i] = int64(src.IntRange(cfg.SizeLo, cfg.SizeHi))
	}
	fig := metrics.NewFigure("Replacement study: mean client score vs cache capacity",
		"cache capacity (fraction of catalog)", "mean client score")

	for _, mk := range []func() cache.Policy{
		func() cache.Policy { return cache.NewLRU() },
		cache.NewLFU,
		cache.NewSizeBased,
		cache.NewStalestFirst,
		func() cache.Policy { return cache.NewGDS() },
	} {
		name := mk().Name()
		series := fig.AddSeries(name)
		for _, frac := range cfg.Fractions {
			score, err := replacementRun(cfg, sizes64, frac, mk())
			if err != nil {
				return nil, err
			}
			series.Add(frac, score)
		}
	}
	return fig, nil
}

func replacementRun(cfg ReplacementConfig, sizes []int64, frac float64, pol cache.Policy) (float64, error) {
	cat, err := catalog.New(sizes)
	if err != nil {
		return 0, err
	}
	capacity := int64(frac * float64(cat.TotalSize()))
	if capacity < cat.MaxSize() {
		capacity = cat.MaxSize() // every object must be cacheable
	}
	c, err := cache.New(capacity, recency.DefaultDecay, pol)
	if err != nil {
		return 0, err
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, cfg.UpdatePeriod))
	// Misses are NOT compulsory here: an absent object competes for the
	// download budget like any stale one (OnDemandStale treats absent as
	// stale), and an unserved miss scores zero. This is what makes the
	// replacement policy matter — with free compulsory fetches a smaller
	// cache would perversely score higher by missing more often.
	st, err := basestation.New(basestation.Config{
		Catalog:       cat,
		Server:        srv,
		Policy:        policy.OnDemandStale{},
		Cache:         c,
		BudgetPerTick: cfg.BudgetPerTick,
		Metrics:       metricsBundle(),
	})
	if err != nil {
		return 0, err
	}
	gen, err := client.NewGenerator(client.GeneratorConfig{
		Catalog:     cat,
		Pattern:     rng.Zipf,
		RatePerTick: cfg.RatePerTick,
		Seed:        cfg.Seed + 17,
	})
	if err != nil {
		return 0, err
	}
	if _, err := st.Run(0, cfg.Warmup, gen); err != nil {
		return 0, err
	}
	totals, err := st.Run(cfg.Warmup, cfg.Measure, gen)
	if err != nil {
		return 0, err
	}
	return totals.MeanScore(), nil
}

// SolverAblationRow is one line of the solver comparison.
type SolverAblationRow struct {
	Solver      string
	Profit      float64
	OptFraction float64
	Elapsed     time.Duration
}

// SolverAblation compares the exact DP against the greedy heuristic,
// branch-and-bound, and the incremental warm-start solver (cold, warm
// after a small tail drift, and with the certified approximate first
// pass) on one Table 1 instance at the given budget, reporting achieved
// profit and runtime. Every timed solve is of the same instance, so
// fractions are directly comparable; the warm row's untimed preparation
// commits a tail-drifted variant so the timed call exercises the
// diff-and-resume path rather than the identical-instance cache.
func SolverAblation(seed uint64, budget int64) ([]SolverAblationRow, error) {
	inst, err := workload.GenInstance(workload.PaperSolutionSpace(rng.None, rng.None, false, seed))
	if err != nil {
		return nil, err
	}
	items := inst.Items()
	drifted := slices.Clone(items)
	for i := len(drifted) - max(1, len(drifted)/20); i < len(drifted); i++ {
		drifted[i].Profit = drifted[i].Profit*1.01 + 0.01
	}
	inc := knapsack.NewIncrementalSolver()
	cert := knapsack.NewIncrementalSolver()
	cert.CertEps = 0.05
	type solver struct {
		name string
		prep func() error // untimed setup before the timed run
		run  func() (knapsack.Solution, error)
	}
	solvers := []solver{
		{"dp", nil, func() (knapsack.Solution, error) { return knapsack.SolveDP(items, budget) }},
		{"greedy", nil, func() (knapsack.Solution, error) { return knapsack.SolveGreedy(items, budget) }},
		{"branch-and-bound", nil, func() (knapsack.Solution, error) { return knapsack.SolveBB(items, budget) }},
		{"incremental(cold)", nil,
			func() (knapsack.Solution, error) { return inc.Solve(items, budget) }},
		{"incremental(warm)",
			func() error { _, err := inc.Solve(drifted, budget); return err },
			func() (knapsack.Solution, error) { return inc.Solve(items, budget) }},
		{"certified(0.05)", nil,
			func() (knapsack.Solution, error) { return cert.Solve(items, budget) }},
	}
	var rows []SolverAblationRow
	var opt float64
	for i, s := range solvers {
		if s.prep != nil {
			if err := s.prep(); err != nil {
				return nil, err
			}
		}
		startT := time.Now()
		sol, err := s.run()
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(startT)
		if i == 0 {
			opt = sol.Profit
		}
		frac := 1.0
		if opt > 0 {
			frac = sol.Profit / opt
		}
		rows = append(rows, SolverAblationRow{Solver: s.name, Profit: sol.Profit, OptFraction: frac, Elapsed: elapsed})
	}
	return rows, nil
}

// RenderSolverAblation formats the ablation as a text table.
func RenderSolverAblation(rows []SolverAblationRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Solver,
			fmt.Sprintf("%.2f", r.Profit),
			fmt.Sprintf("%.4f", r.OptFraction),
			r.Elapsed.Round(time.Microsecond).String(),
		})
	}
	return "# Solver ablation (Table 1 instance, budget 2500)\n" +
		metrics.RenderTable([]string{"solver", "profit", "fraction-of-optimal", "time"}, cells)
}

// FullSystemStudyConfig parameterizes the latency/utilization study (the
// Figure 1 architecture made executable).
type FullSystemStudyConfig struct {
	Objects           int
	UpdatePeriod      int
	RatePerTick       int
	Ticks             int
	FixedBandwidth    float64
	DownlinkBandwidth float64
	Budgets           []int64
	Seed              uint64
}

// DefaultFullSystemStudy returns the study's default configuration.
func DefaultFullSystemStudy() FullSystemStudyConfig {
	return FullSystemStudyConfig{
		Objects:           200,
		UpdatePeriod:      5,
		RatePerTick:       50,
		Ticks:             300,
		FixedBandwidth:    20,
		DownlinkBandwidth: 60,
		Budgets:           []int64{5, 10, 20, 40, 80},
		Seed:              6000,
	}
}

// fixedLinkDelay is the fixed network's propagation delay in ticks,
// added after a tick's downloads finish transmitting.
const fixedLinkDelay = 0.1

// FullSystemStudy sweeps the per-tick download budget and reports mean
// request latency, mean client score, and channel utilizations — the
// paper's qualitative claim that downloading too much data increases
// latency while downloading too little wastes recency.
func FullSystemStudy(cfg FullSystemStudyConfig) (*metrics.Figure, *metrics.Figure, error) {
	if cfg.FixedBandwidth <= 0 || cfg.DownlinkBandwidth <= 0 {
		return nil, nil, fmt.Errorf("experiment: bandwidths must be positive (fixed %v, downlink %v)",
			cfg.FixedBandwidth, cfg.DownlinkBandwidth)
	}
	latFig := metrics.NewFigure("Full system: request latency vs download budget",
		"download budget (units/tick)", "mean latency (ticks)")
	utilFig := metrics.NewFigure("Full system: utilization and score vs download budget",
		"download budget (units/tick)", "fraction")
	latency := latFig.AddSeries("mean latency")
	score := utilFig.AddSeries("mean client score")
	linkU := utilFig.AddSeries("fixed-link utilization")
	downU := utilFig.AddSeries("downlink utilization")

	for _, budget := range cfg.Budgets {
		r, err := fullSystemRun(cfg, budget)
		if err != nil {
			return nil, nil, err
		}
		x := float64(budget)
		latency.Add(x, r.latency)
		score.Add(x, r.score)
		linkU.Add(x, r.linkUtil)
		downU.Add(x, r.downUtil)
	}
	return latFig, utilFig, nil
}

// fullSystemPoint is one budget's row of the full-system study.
type fullSystemPoint struct {
	latency, score, linkUtil, downUtil float64
}

// fluidQueue is a FIFO channel of fixed bandwidth: work arriving at time
// at starts once the backlog ahead of it has drained.
type fluidQueue struct {
	bandwidth float64
	free      float64 // when the current backlog finishes
	busy      float64 // total transmission time
}

// push queues size units arriving at time at and returns when they finish.
func (q *fluidQueue) push(at, size float64) float64 {
	d := size / q.bandwidth
	q.free = max(q.free, at) + d
	q.busy += d
	return q.free
}

// fullSystemRun drives the tick station for one budget and feeds each
// tick's traffic through the two channels of Figure 1, in tick order.
// The fixed link carries the tick's download units, then the propagation
// delay. The downlink airs each cache-served request's copy from the
// tick, then each downloaded object once, when it lands, answering every
// request waiting on it; the next tick's traffic queues behind, so a slow
// fixed link leaves the downlink idle. Latency is the end of the airing
// minus the request's tick; utilization is busy time over the horizon,
// including the drain.
func fullSystemRun(cfg FullSystemStudyConfig, budget int64) (fullSystemPoint, error) {
	cat, err := catalog.Uniform(cfg.Objects, 1)
	if err != nil {
		return fullSystemPoint{}, err
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, cfg.UpdatePeriod))
	st, err := basestation.New(basestation.Config{
		Catalog:          cat,
		Server:           srv,
		Policy:           policy.OnDemandLowestRecency{},
		BudgetPerTick:    budget,
		CompulsoryMisses: true,
		Metrics:          metricsBundle(),
	})
	if err != nil {
		return fullSystemPoint{}, err
	}
	gen, err := client.NewGenerator(client.GeneratorConfig{
		Catalog:     cat,
		Pattern:     rng.Zipf,
		RatePerTick: cfg.RatePerTick,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return fullSystemPoint{}, err
	}

	link := fluidQueue{bandwidth: cfg.FixedBandwidth}
	down := fluidQueue{bandwidth: cfg.DownlinkBandwidth}
	var (
		totals  basestation.Totals
		out     []basestation.Outcome
		waiting = make([]int, cat.Len()) // requests waiting on each of this tick's downloads
		fetched []catalog.ID             // this tick's downloads, in first-request order
		latSum  float64
		horizon = float64(cfg.Ticks)
	)
	for tick := 0; tick < cfg.Ticks; tick++ {
		now := float64(tick)
		reqs := gen.Tick(tick)
		out = slices.Grow(out[:0], len(reqs))[:len(reqs)]
		res, err := st.ServeTickOutcomes(tick, reqs, srv.Tick(tick), out)
		if err != nil {
			return fullSystemPoint{}, err
		}
		totals.Add(res)
		for i, o := range out {
			id := reqs[i].Object
			switch o.Source {
			case basestation.SourceCache:
				latSum += down.push(now, float64(cat.Size(id))) - now
			case basestation.SourceDownload:
				if waiting[id] == 0 {
					fetched = append(fetched, id)
				}
				waiting[id]++
			}
		}
		if res.DownloadUnits > 0 {
			landed := link.push(now, float64(res.DownloadUnits)) + fixedLinkDelay
			horizon = max(horizon, landed)
			for _, id := range fetched {
				latSum += float64(waiting[id]) * (down.push(landed, float64(cat.Size(id))) - now)
				waiting[id] = 0
			}
		}
		fetched = fetched[:0]
	}
	horizon = max(horizon, down.free)

	p := fullSystemPoint{
		score:    totals.MeanScore(),
		linkUtil: link.busy / horizon,
		downUtil: down.busy / horizon,
	}
	if totals.Requests > 0 {
		p.latency = latSum / float64(totals.Requests)
	}
	return p, nil
}
