package experiment

import (
	"fmt"

	"mobicache/internal/basestation"
	"mobicache/internal/broadcast"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/invalidation"
	"mobicache/internal/metrics"
	"mobicache/internal/multicell"
	"mobicache/internal/policy"
	"mobicache/internal/rng"
	"mobicache/internal/server"
)

// BroadcastStudyConfig parameterizes the data-dissemination baseline
// comparison (related work [4-6]): expected client wait under flat,
// multi-disk, and hybrid push/pull broadcast as access skew grows.
type BroadcastStudyConfig struct {
	Objects int
	// Skews are the zipf exponents swept (0 = uniform).
	Skews []float64
	// Draws is the number of simulated requests per cell.
	Draws int
	Seed  uint64
}

// DefaultBroadcastStudy returns the study's default configuration.
func DefaultBroadcastStudy() BroadcastStudyConfig {
	return BroadcastStudyConfig{
		Objects: 120,
		Skews:   []float64{0, 0.5, 1, 1.5},
		Draws:   100000,
		Seed:    7000,
	}
}

// BroadcastStudy compares mean waits: flat broadcast (analytic),
// three-tier multi-disk (analytic), and hybrid push/pull (simulated with
// a pull backchannel).
func BroadcastStudy(cfg BroadcastStudyConfig) (*metrics.Figure, error) {
	if cfg.Objects < 40 || cfg.Objects%8 != 0 {
		return nil, fmt.Errorf("experiment: broadcast study needs objects >= 40 divisible by 8, got %d", cfg.Objects)
	}
	cat, err := catalog.Uniform(cfg.Objects, 1)
	if err != nil {
		return nil, err
	}
	ids := cat.IDs()
	// Three tiers at frequencies 4:2:1. With lcm 4, the warm disk splits
	// into 2 chunks (even size required) and the cold disk into 4
	// (size divisible by 4); the hot disk is a single chunk. Round the
	// cold tier down to a multiple of 4 and absorb the remainder into the
	// hot tier, which has no divisibility constraint.
	hot := cfg.Objects / 8
	warm := (cfg.Objects / 4) &^ 1
	cold := cfg.Objects - hot - warm
	hot += cold % 4
	cold -= cold % 4
	multi, err := broadcast.MultiDisk([]broadcast.Disk{
		{Objects: ids[:hot], Freq: 4},
		{Objects: ids[hot : hot+warm], Freq: 2},
		{Objects: ids[hot+warm:], Freq: 1},
	})
	if err != nil {
		return nil, err
	}
	flat := broadcast.Flat(cat)

	fig := metrics.NewFigure("Broadcast baselines: mean wait vs access skew",
		"zipf exponent", "mean wait (slots)")
	flatS := fig.AddSeries("flat broadcast")
	multiS := fig.AddSeries("multi-disk broadcast")
	hybridS := fig.AddSeries("hybrid push/pull")

	for _, s := range cfg.Skews {
		weights := rng.ZipfWeights(cfg.Objects, s)
		flatS.Add(s, flat.MeanExpectedWait(weights))
		multiS.Add(s, multi.MeanExpectedWait(weights))

		// Hybrid: simulate a request stream against the air schedule.
		alias, err := rng.NewAlias(weights)
		if err != nil {
			return nil, err
		}
		h, err := broadcast.NewHybrid(multi, 4, cfg.Objects/8)
		if err != nil {
			return nil, err
		}
		src := rng.New(cfg.Seed + uint64(s*1000))
		total := 0.0
		n := cfg.Draws / 10
		for i := 0; i < n; i++ {
			id := ids[alias.Sample(src)]
			total += float64(h.Request(id))
			// Air a few slots between requests so queues drain.
			for j := 0; j < 3; j++ {
				h.Air()
			}
		}
		hybridS.Add(s, total/float64(n))
	}
	return fig, nil
}

// SleeperStudyConfig parameterizes the invalidation-report comparison
// (related work [8]): client-cache hit ratio vs sleep probability for the
// TS and AT strategies.
type SleeperStudyConfig struct {
	Objects    int
	Interval   int
	Window     int
	Ticks      int
	UpdateProb float64
	// SleepProbs are the per-report probabilities of sleeping through it.
	SleepProbs []float64
	Seed       uint64
}

// DefaultSleeperStudy returns the study's default configuration.
func DefaultSleeperStudy() SleeperStudyConfig {
	return SleeperStudyConfig{
		Objects:    100,
		Interval:   10,
		Window:     4,
		Ticks:      20000,
		UpdateProb: 0.01,
		SleepProbs: []float64{0, 0.2, 0.4, 0.6, 0.8},
		Seed:       8000,
	}
}

// SleeperStudy measures the hit ratio of TS and AT terminals as they
// sleep through an increasing fraction of invalidation reports.
func SleeperStudy(cfg SleeperStudyConfig) (*metrics.Figure, error) {
	if cfg.Objects <= 0 || cfg.Interval <= 0 || cfg.Ticks <= 0 {
		return nil, fmt.Errorf("experiment: invalid sleeper config %+v", cfg)
	}
	fig := metrics.NewFigure("Invalidation strategies: hit ratio vs sleep probability",
		"P(sleep through a report)", "hit ratio")
	for _, strategy := range []invalidation.Strategy{invalidation.TS, invalidation.AT} {
		series := fig.AddSeries(strategy.String())
		for _, sleepP := range cfg.SleepProbs {
			hit, err := sleeperRun(cfg, strategy, sleepP)
			if err != nil {
				return nil, err
			}
			series.Add(sleepP, hit)
		}
	}
	return fig, nil
}

func sleeperRun(cfg SleeperStudyConfig, strategy invalidation.Strategy, sleepP float64) (float64, error) {
	src := rng.New(cfg.Seed + uint64(sleepP*100))
	// AT reports cover one interval only; the configured window shapes
	// the TS broadcaster alone.
	window := cfg.Window
	if strategy == invalidation.AT {
		window = 1
	}
	b, err := invalidation.NewBroadcaster(cfg.Interval, window)
	if err != nil {
		return 0, err
	}
	term, err := invalidation.NewTerminal(strategy, b)
	if err != nil {
		return 0, err
	}
	for tick := 1; tick <= cfg.Ticks; tick++ {
		for i := 0; i < cfg.Objects; i++ {
			if src.Bernoulli(cfg.UpdateProb) {
				b.RecordUpdate(catalog.ID(i), tick)
			}
		}
		if tick%cfg.Interval == 0 && !src.Bernoulli(sleepP) {
			term.OnReport(b.ReportAt(tick))
		}
		id := catalog.ID(src.Intn(cfg.Objects))
		if !term.Query(id, tick) {
			term.Fill(id, tick)
		}
	}
	s := term.Stats()
	total := s.Hits + s.Misses
	if total == 0 {
		return 0, nil
	}
	return float64(s.Hits) / float64(total), nil
}

// AdaptiveStudyConfig parameterizes the adaptive-budget frontier study
// (the paper's future work, implemented by policy.Adaptive).
type AdaptiveStudyConfig struct {
	Objects      int
	UpdatePeriod int
	RatePerTick  int
	Warmup       int
	Measure      int
	// FixedBudgets are the per-tick budgets of the fixed policy sweep.
	FixedBudgets []int64
	// FractionOfMax is the adaptive stopping rule.
	FractionOfMax float64
	Seed          uint64
}

// DefaultAdaptiveStudy returns the study's default configuration.
func DefaultAdaptiveStudy() AdaptiveStudyConfig {
	return AdaptiveStudyConfig{
		Objects:       300,
		UpdatePeriod:  3,
		RatePerTick:   60,
		Warmup:        50,
		Measure:       200,
		FixedBudgets:  []int64{5, 10, 20, 40, 80},
		FractionOfMax: 0.9,
		Seed:          9000,
	}
}

// AdaptiveStudy traces the score-vs-bandwidth frontier of fixed per-tick
// budgets and places the adaptive policy's operating point on it: the
// adaptive point should sit on or above the fixed frontier (same score
// for less bandwidth).
func AdaptiveStudy(cfg AdaptiveStudyConfig) (*metrics.Figure, error) {
	if cfg.Objects <= 0 || cfg.Measure <= 0 {
		return nil, fmt.Errorf("experiment: invalid adaptive config %+v", cfg)
	}
	fig := metrics.NewFigure("Adaptive budget: client score vs bandwidth used",
		"mean data units downloaded per tick", "mean client score")
	fixed := fig.AddSeries("fixed budgets")
	adaptive := fig.AddSeries("adaptive")

	for _, budget := range cfg.FixedBudgets {
		sel, err := newStudySelector(cfg)
		if err != nil {
			return nil, err
		}
		pol, err := policy.NewOnDemandKnapsack(sel)
		if err != nil {
			return nil, err
		}
		units, score, err := adaptiveRun(cfg, pol, budget)
		if err != nil {
			return nil, err
		}
		fixed.Add(units, score)
	}

	sel, err := newStudySelector(cfg)
	if err != nil {
		return nil, err
	}
	pol, err := policy.NewAdaptive(sel, core.BoundConfig{FractionOfMax: cfg.FractionOfMax})
	if err != nil {
		return nil, err
	}
	units, score, err := adaptiveRun(cfg, pol, 0)
	if err != nil {
		return nil, err
	}
	adaptive.Add(units, score)
	return fig, nil
}

func newStudySelector(cfg AdaptiveStudyConfig) (*core.Selector, error) {
	cat, err := catalog.Uniform(cfg.Objects, 1)
	if err != nil {
		return nil, err
	}
	return core.NewSelector(cat, solverConfig())
}

func adaptiveRun(cfg AdaptiveStudyConfig, pol policy.Policy, budget int64) (unitsPerTick, meanScore float64, err error) {
	cat, err := catalog.Uniform(cfg.Objects, 1)
	if err != nil {
		return 0, 0, err
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, cfg.UpdatePeriod))
	st, err := basestation.New(basestation.Config{
		Catalog:          cat,
		Server:           srv,
		Policy:           pol,
		BudgetPerTick:    budget,
		CompulsoryMisses: true,
		Metrics:          metricsBundle(),
	})
	if err != nil {
		return 0, 0, err
	}
	gen, err := client.NewGenerator(client.GeneratorConfig{
		Catalog:     cat,
		Pattern:     rng.Zipf,
		RatePerTick: cfg.RatePerTick,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return 0, 0, err
	}
	if _, err := st.Run(0, cfg.Warmup, gen); err != nil {
		return 0, 0, err
	}
	totals, err := st.Run(cfg.Warmup, cfg.Measure, gen)
	if err != nil {
		return 0, 0, err
	}
	return float64(totals.DownloadUnits) / float64(totals.Ticks), totals.MeanScore(), nil
}

// MulticellStudy compares a multi-cell deployment with and without
// cooperative base-station caching: server downloads and client score per
// configuration.
func MulticellStudy(cells int, seed uint64) (string, error) {
	if cells <= 0 {
		return "", fmt.Errorf("experiment: cells %d must be positive", cells)
	}
	run := func(sharing bool) (multicell.Report, error) {
		sys, err := multicell.New(multicell.Config{
			Cells:         cells,
			Objects:       200,
			UpdatePeriod:  5,
			BudgetPerTick: 10,
			Clients:       60 * cells,
			Mobility:      client.Mobility{MeanResidence: 30, PDisconnect: 0.2, MeanAbsence: 15},
			RequestProb:   0.3,
			Pattern:       rng.Zipf,
			CacheSharing:  sharing,
			Seed:          seed,
		})
		if err != nil {
			return multicell.Report{}, err
		}
		return sys.Run(400)
	}
	without, err := run(false)
	if err != nil {
		return "", err
	}
	with, err := run(true)
	if err != nil {
		return "", err
	}
	rows := [][]string{
		{"isolated", fmt.Sprint(without.Requests), fmt.Sprint(without.Downloads),
			"0", fmt.Sprintf("%.4f", without.MeanScore), fmt.Sprint(without.Handoffs)},
		{"cooperative", fmt.Sprint(with.Requests), fmt.Sprint(with.Downloads),
			fmt.Sprint(with.SharedCopies), fmt.Sprintf("%.4f", with.MeanScore), fmt.Sprint(with.Handoffs)},
	}
	return fmt.Sprintf("# Multi-cell study (%d cells)\n", cells) +
		metrics.RenderTable([]string{"mode", "requests", "server downloads", "shared copies", "mean score", "handoffs"}, rows), nil
}
