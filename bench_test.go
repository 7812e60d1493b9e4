// Benchmarks: one per table/figure of the paper (regenerating the
// corresponding result) plus the ablation and component benches called
// out in DESIGN.md. Figure benches use scaled-down configurations per
// iteration so `go test -bench=.` stays tractable; the full paper-scale
// runs are produced by cmd/figures.
package mobicache

import (
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/client"
	"mobicache/internal/experiment"
	"mobicache/internal/knapsack"
	"mobicache/internal/multicell"
	"mobicache/internal/recency"
	"mobicache/internal/rng"
	"mobicache/internal/serve"
	"mobicache/internal/workload"
)

// BenchmarkTable1Gen generates one full Table 1 solution-space instance
// (500 objects, 5000 clients, fixed totals, induced correlations).
func BenchmarkTable1Gen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := workload.GenInstance(workload.PaperSolutionSpace(rng.Positive, rng.Negative, false, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates a reduced Figure 2 grid (the bandwidth
// comparison of async vs on-demand across skews).
func BenchmarkFigure2(b *testing.B) {
	cfg := experiment.Figure2Config{
		Objects: 100, UpdatePeriod: 5, Warmup: 20, Measure: 100,
		Rates: []int{0, 25, 50, 100}, Seed: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates a reduced Figure 3 pair of panels (mean
// delivered recency vs download cap).
func BenchmarkFigure3(b *testing.B) {
	cfg := experiment.Figure3Config{
		Objects: 100, RatePerTick: 50, Ks: []int{1, 10, 25, 50},
		Warmup: 20, Measure: 50, LowPeriod: 10, HighPeriod: 1, Seed: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 at full paper scale (three DP
// traces over the 500-object/5000-unit instance).
func BenchmarkFigure4(b *testing.B) {
	cfg := experiment.DefaultSolutionSpace()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates both Figure 5 panels at full paper scale.
func BenchmarkFigure5(b *testing.B) {
	cfg := experiment.DefaultSolutionSpace()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates both Figure 6 panels at full paper scale.
func BenchmarkFigure6(b *testing.B) {
	cfg := experiment.DefaultSolutionSpace()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// paperItems builds the canonical Table 1 knapsack instance shared by the
// solver benches.
func paperItems(b *testing.B) []knapsack.Item {
	b.Helper()
	inst, err := workload.GenInstance(workload.PaperSolutionSpace(rng.None, rng.None, false, 11))
	if err != nil {
		b.Fatal(err)
	}
	return inst.Items()
}

// BenchmarkSolverDP times the exact dynamic program at the paper's scale
// (500 items, budget 2500) — the solver used throughout Section 4 — on a
// reused Solver workspace, so steady-state iterations are allocation-free.
func BenchmarkSolverDP(b *testing.B) {
	items := paperItems(b)
	var s knapsack.Solver
	if _, err := s.SolveDP(items, 2500); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveDP(items, 2500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverTrace times the full best-value-per-budget trace that
// Figures 4-6 are built from, on a reused Solver workspace.
func BenchmarkSolverTrace(b *testing.B) {
	items := paperItems(b)
	var s knapsack.Solver
	if _, err := s.TraceDP(items, 5000); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TraceDP(items, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverGreedy times the density heuristic on the same instance,
// on a reused Solver workspace.
func BenchmarkSolverGreedy(b *testing.B) {
	items := paperItems(b)
	var s knapsack.Solver
	if _, err := s.SolveGreedy(items, 2500); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveGreedy(items, 2500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverIncremental times the incremental warm-start solver on
// tick-to-tick drifting instances at the paper's scale (500 items, budget
// 2500) — the workload BenchmarkSolverDP cold-solves every iteration.
// Per-iteration drift perturbs a few item profits within ±10% of their
// seed values, the shape of one tick's demand shift. Sub-benches:
//
//   - certified: the CertEps=0.05 first pass (density-greedy certified
//     against the fractional bound) — the headline number; solutions are
//     provably >= 0.95x optimal, in practice ~1.0x.
//   - exact-scattered: bit-exact solving under edits scattered anywhere;
//     a front-of-instance edit forces a full re-solve, so this bounds the
//     worst case.
//   - exact-tail: bit-exact solving when drift is confined to the last 5%
//     of the instance, where the diff resumes from a late checkpoint row.
//   - cold: Reset before every solve — the no-reuse baseline, comparable
//     to BenchmarkSolverDP plus diff overhead.
//
// The reported full/warm/certified per-solve metrics show which path each
// workload actually took.
func BenchmarkSolverIncremental(b *testing.B) {
	base := paperItems(b)
	const budget = 2500
	run := func(b *testing.B, certEps float64, cold bool, drift func(r *rng.Source, items []knapsack.Item)) {
		items := append([]knapsack.Item(nil), base...)
		inc := knapsack.NewIncrementalSolver()
		inc.CertEps = certEps
		r := rng.New(77)
		step := func() {
			drift(r, items)
			if cold {
				inc.Reset()
			}
			if _, err := inc.Solve(items, budget); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // grow every workspace to steady state
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.StopTimer()
		s := inc.Stats()
		solves := float64(s.FullSolves + s.WarmSolves + s.CachedHits + s.UnitSolves + s.CertifiedSolves)
		b.ReportMetric(float64(s.FullSolves)/solves, "full/solve")
		b.ReportMetric(float64(s.WarmSolves+s.CachedHits)/solves, "warm/solve")
		b.ReportMetric(float64(s.CertifiedSolves)/solves, "certified/solve")
	}
	scattered := func(r *rng.Source, items []knapsack.Item) {
		for k := 0; k < 5; k++ {
			i := r.IntRange(0, len(items)-1)
			items[i].Profit = base[i].Profit * (0.9 + float64(r.IntRange(0, 200))/1000)
		}
	}
	tail := func(r *rng.Source, items []knapsack.Item) {
		lo := len(items) - len(items)/20
		for k := 0; k < 5; k++ {
			i := r.IntRange(lo, len(items)-1)
			items[i].Profit = base[i].Profit * (0.9 + float64(r.IntRange(0, 200))/1000)
		}
	}
	b.Run("certified", func(b *testing.B) { run(b, 0.05, false, scattered) })
	b.Run("exact-scattered", func(b *testing.B) { run(b, 0, false, scattered) })
	b.Run("exact-tail", func(b *testing.B) { run(b, 0, false, tail) })
	b.Run("cold", func(b *testing.B) { run(b, 0, true, scattered) })
}

// BenchmarkSelectorSelect times one full on-demand selection at the
// paper's batch scale: 500 requested objects, 5000 client requests,
// budget 2500 — the per-tick cost of the paper's strategy. The dp
// sub-bench cold-solves every call; incremental and certified reuse the
// selector's warm solver state across the repeated batches, the station's
// situation whenever consecutive ticks see similar demand.
func BenchmarkSelectorSelect(b *testing.B) {
	inst, err := workload.GenInstance(workload.PaperSolutionSpace(rng.None, rng.None, false, 12))
	if err != nil {
		b.Fatal(err)
	}
	sizes := make([]int64, len(inst.Sizes))
	for i, s := range inst.Sizes {
		sizes[i] = int64(s)
	}
	var reqs []Request
	for obj, n := range inst.NumRequests {
		for k := 0; k < n; k++ {
			reqs = append(reqs, Request{Client: len(reqs), Object: ObjectID(obj), Target: 1})
		}
	}
	recencies := append([]float64(nil), inst.Recency...)
	for _, solver := range []string{"dp", "incremental", "certified"} {
		b.Run(solver, func(b *testing.B) {
			sel, err := NewSelector(sizes, WithSolver(solver))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sel.Select(reqs, recencies, 2500); err != nil { // warm the workspace
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(reqs, recencies, 2500); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpperBound times the budget recommendation (full DP trace +
// rule scan) on the paper-scale batch.
func BenchmarkUpperBound(b *testing.B) {
	inst, err := workload.GenInstance(workload.PaperSolutionSpace(rng.None, rng.None, false, 13))
	if err != nil {
		b.Fatal(err)
	}
	sizes := make([]int64, len(inst.Sizes))
	for i, s := range inst.Sizes {
		sizes[i] = int64(s)
	}
	sel, err := NewSelector(sizes)
	if err != nil {
		b.Fatal(err)
	}
	var reqs []Request
	for obj, n := range inst.NumRequests {
		for k := 0; k < n; k++ {
			reqs = append(reqs, Request{Client: len(reqs), Object: ObjectID(obj), Target: 1})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sel.RecommendBudget(reqs, inst.Recency, 5000, BoundConfig{FractionOfMax: 0.9})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplacement times the limited-cache extension study at reduced
// scale.
func BenchmarkReplacement(b *testing.B) {
	cfg := experiment.DefaultReplacement()
	cfg.Objects, cfg.Warmup, cfg.Measure = 60, 20, 40
	cfg.Fractions = []float64{0.1, 0.5}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Replacement(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSystem times the Figure 1 latency study at reduced scale
// (the tick station feeding fluid FIFO fixed-link and downlink queues).
func BenchmarkFullSystem(b *testing.B) {
	cfg := experiment.DefaultFullSystemStudy()
	cfg.Objects, cfg.RatePerTick, cfg.Ticks = 50, 10, 60
	cfg.Budgets = []int64{2, 20}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.FullSystemStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastStudy times the broadcast-disk baseline sweep at
// reduced draw counts.
func BenchmarkBroadcastStudy(b *testing.B) {
	cfg := experiment.DefaultBroadcastStudy()
	cfg.Draws = 10000
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BroadcastStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSleeperStudy times the invalidation-report comparison at
// reduced tick counts.
func BenchmarkSleeperStudy(b *testing.B) {
	cfg := experiment.DefaultSleeperStudy()
	cfg.Ticks = 4000
	cfg.SleepProbs = []float64{0, 0.4, 0.8}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SleeperStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveStudy times the adaptive-budget frontier at reduced
// scale.
func BenchmarkAdaptiveStudy(b *testing.B) {
	cfg := experiment.DefaultAdaptiveStudy()
	cfg.Objects, cfg.Warmup, cfg.Measure = 120, 20, 60
	cfg.FixedBudgets = []int64{5, 20, 60}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AdaptiveStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimationStudy times the exact-vs-TTL staleness ablation at
// reduced scale.
func BenchmarkEstimationStudy(b *testing.B) {
	cfg := experiment.DefaultEstimationStudy()
	cfg.Objects, cfg.RatePerTick, cfg.Warmup, cfg.Measure = 120, 40, 20, 60
	cfg.Ks = []int{2, 10, 30}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EstimationStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuasiStudy times the quasi-copy coherence sweep at reduced
// scale.
func BenchmarkQuasiStudy(b *testing.B) {
	cfg := experiment.DefaultQuasiStudy()
	cfg.Objects, cfg.Ticks = 80, 600
	for i := 0; i < b.N; i++ {
		if _, err := experiment.QuasiStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeterogeneityStudy times the update-rate-heterogeneity sweep
// at reduced scale.
func BenchmarkHeterogeneityStudy(b *testing.B) {
	cfg := experiment.DefaultHeterogeneityStudy()
	cfg.Objects, cfg.RatePerTick, cfg.Warmup, cfg.Measure = 100, 30, 20, 80
	cfg.VolatileFractions = []float64{0.2, 0.6, 1.0}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.HeterogeneityStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticellStudy times the cooperative-caching comparison at two
// cells.
func BenchmarkMulticellStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.MulticellStudy(2, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticellTick times one tick of the multi-cell engine: 16
// cells with cooperative caching, served one after another. The system
// is built and warmed outside the timer, so the number isolates the
// steady-state tick. The case keeps its "serial" name so its row in the
// archived benchmark files stays comparable.
func BenchmarkMulticellTick(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		sys, err := multicell.New(multicell.Config{
			Cells:         16,
			Objects:       300,
			BudgetPerTick: 10,
			Clients:       1600,
			Mobility:      client.Mobility{MeanResidence: 30, PDisconnect: 0.2, MeanAbsence: 15},
			RequestProb:   0.3,
			Pattern:       rng.Zipf,
			CacheSharing:  true,
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(200); err != nil { // warm the caches and per-tick buffers
			b.Fatal(err)
		}
		b.ResetTimer()
		rep, err := sys.Run(b.N)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Ticks != b.N {
			b.Fatalf("ran %d ticks, want %d", rep.Ticks, b.N)
		}
	})
}

// BenchmarkStationTickDegraded times a steady-state tick with the
// resilience layer fully engaged: a permanent upstream outage keeps the
// circuit breaker cycling open/half-open, and admission control sheds
// half the request stream every tick. The degraded path must stay
// 0 allocs/op — resilience machinery that allocates under pressure is
// load-shedding in the wrong direction.
func BenchmarkStationTickDegraded(b *testing.B) {
	cfg := benchTickConfig(nil)
	cfg.Fault = &FaultConfig{
		Outages: []FaultWindow{{Server: AllServers, From: 0, To: 1 << 30}},
		Retry:   RetryConfig{MaxAttempts: 2, BaseBackoff: 0.5},
	}
	cfg.Resilience = &ResilienceConfig{
		BreakerFailures:    3,
		BreakerOpenTicks:   5,
		MaxRequestsPerTick: cfg.RequestsPerTick / 2,
	}
	st, _, err := buildStation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, _, err := buildGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tick := 0
	for ; tick < 200; tick++ { // grow shed scratch, trip the breaker
		if _, err := st.RunTick(tick, gen.Tick(tick)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.RunTick(tick, gen.Tick(tick)); err != nil {
			b.Fatal(err)
		}
		tick++
	}
}

// BenchmarkCacheOps times the hot cache path (Get + master-update decay)
// under an LRU-bounded cache.
func BenchmarkCacheOps(b *testing.B) {
	c := cache.MustNew(1000, recency.DefaultDecay, cache.NewLRU())
	for i := 0; i < 500; i++ {
		if err := c.Put(ObjectID(i), int64(i%7+1), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ObjectID(i % 500)
		c.Get(id, float64(i))
		c.OnMasterUpdate(ObjectID((i * 7) % 500))
	}
}

// BenchmarkSimulationTick times one steady-state tick of the paper's
// Figure 3 system (500 objects, 100 requests, knapsack policy, budget
// 50). The station and generator are built and warmed outside the timer
// — earlier versions timed RunSimulation whole, so construction showed up
// as per-op garbage at short bench times. The catalog is unit-size, so
// both solver kinds take the unit-weight fast path and the incremental
// sub-bench mainly pins that warm-start plumbing costs nothing here.
func BenchmarkSimulationTick(b *testing.B) {
	for _, solver := range []string{"dp", "incremental"} {
		b.Run(solver, func(b *testing.B) {
			cfg := benchTickConfig(nil)
			cfg.Solver = solver
			st, _, err := buildStation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			gen, _, err := buildGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tick := 0
			for ; tick < 200; tick++ { // warm caches, solver workspaces
				if _, err := st.RunTick(tick, gen.Tick(tick)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.RunTick(tick, gen.Tick(tick)); err != nil {
					b.Fatal(err)
				}
				tick++
			}
		})
	}
}

// BenchmarkServeWindow times one steady-state selection window of the
// event-driven serving tier over the same system BenchmarkSimulationTick
// measures (500 objects, 100 requests per window, knapsack policy,
// budget 50). The engine wraps a warmed station, so the bench isolates
// what the window path adds on top of RunTick: the batch hand-off, the
// scheduled-update bookkeeping, and the (empty, single-station) peer
// phase. The serving path is required to be allocation-free at steady
// state — check.sh gates on 0 allocs/op here.
func BenchmarkServeWindow(b *testing.B) {
	cfg := benchTickConfig(nil)
	st, srv, err := buildStation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, _, err := buildGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(serve.Config{
		Station:         st,
		Server:          srv,
		MaxBatch:        cfg.RequestsPerTick + 1, // windows close by the driver, never by count
		ScheduleUpdates: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	tick := 0
	for ; tick < 300; tick++ { // warm caches, solver workspaces, update schedule
		if _, err := eng.ServeWindow(gen.Tick(tick)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ServeWindow(gen.Tick(tick)); err != nil {
			b.Fatal(err)
		}
		tick++
	}
}
