package mobicache

import (
	"math"
	"testing"
)

func TestSelectorQuickstart(t *testing.T) {
	sel, err := NewSelector([]int64{3, 1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumObjects() != 5 || sel.TotalSize() != 14 {
		t.Fatalf("catalog: n=%d total=%d", sel.NumObjects(), sel.TotalSize())
	}
	reqs := []Request{
		{Client: 0, Object: 2, Target: 1.0},
		{Client: 1, Object: 4, Target: 0.5},
	}
	plan, err := sel.Select(reqs, []float64{1, 1, 0.25, 1, 0}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Object 4 is absent (benefit 1, size 5); object 2 stale at 0.25
	// (benefit 1-Inverse(0.25,1)=1-0.25=0.75... Inverse(0.25,1)=1/(1+0.75)
	// = 4/7, benefit 3/7, size 4). Budget 6 fits only one: object 4 wins.
	if len(plan.Download) != 1 || plan.Download[0] != 4 {
		t.Fatalf("Download = %v, want [4]", plan.Download)
	}
	if plan.AverageScore() <= 0.5 || plan.AverageScore() > 1 {
		t.Fatalf("AverageScore = %v", plan.AverageScore())
	}
}

func TestSelectorValidatesRecencies(t *testing.T) {
	sel, _ := NewSelector([]int64{1, 1})
	if _, err := sel.Select(nil, []float64{1}, 10); err == nil {
		t.Fatal("short recency slice accepted")
	}
	if _, err := sel.Select(nil, []float64{1, 2}, 10); err == nil {
		t.Fatal("recency > 1 accepted")
	}
	if _, err := sel.Select(nil, []float64{1, -0.5}, 10); err == nil {
		t.Fatal("negative recency accepted")
	}
}

func TestSelectorOptions(t *testing.T) {
	if _, err := NewSelector([]int64{1}, WithSolver("bogus")); err == nil {
		t.Fatal("bogus solver accepted")
	}
	if _, err := NewSelector([]int64{1}, WithScore(nil)); err == nil {
		t.Fatal("nil score accepted")
	}
	if _, err := NewSelector(nil); err == nil {
		t.Fatal("empty catalog accepted")
	}
	for _, solver := range []string{"dp", "greedy", "incremental", "certified"} {
		sel, err := NewSelector([]int64{2, 3, 4}, WithSolver(solver), WithScore(ExponentialScore))
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		plan, err := sel.Select([]Request{{Object: 0, Target: 1}}, []float64{0.5, 1, 1}, 10)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if len(plan.Download) != 1 {
			t.Fatalf("%s: plan = %+v", solver, plan)
		}
	}
}

func TestSelectorUnlimited(t *testing.T) {
	sel, _ := NewSelector([]int64{1, 1, 1})
	plan, err := sel.Select([]Request{
		{Object: 0, Target: 1}, {Object: 1, Target: 1}, {Object: 2, Target: 1},
	}, []float64{0.5, 0.5, 0.5}, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Download) != 3 || plan.AverageScore() != 1 {
		t.Fatalf("unlimited plan = %+v", plan)
	}
}

func TestRecommendBudget(t *testing.T) {
	sel, _ := NewSelector([]int64{2, 2, 2, 2})
	reqs := []Request{
		{Object: 0, Target: 1}, {Object: 1, Target: 1},
		{Object: 2, Target: 1}, {Object: 3, Target: 1},
	}
	recencies := []float64{0.2, 0.4, 0.6, 0.8}
	rep, err := sel.RecommendBudget(reqs, recencies, 8, BoundConfig{FractionOfMax: 0.75, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Budget <= 0 || rep.Budget > 8 {
		t.Fatalf("recommended budget = %d", rep.Budget)
	}
	if rep.Efficiency() < 0.75 {
		t.Fatalf("efficiency = %v", rep.Efficiency())
	}
	if _, err := sel.RecommendBudget(reqs, []float64{1}, 8, BoundConfig{}); err == nil {
		t.Fatal("short recency slice accepted")
	}
}

func TestScoreFuncExports(t *testing.T) {
	if InverseScore(0.5, 1) >= 1 || ExponentialScore(0.5, 1) >= 1 {
		t.Fatal("stale scores must be < 1")
	}
	if IdentityScore(0.5, 0.1) != 0.5 {
		t.Fatal("identity score wrong")
	}
	if InverseScore(1, 1) != 1 {
		t.Fatal("fresh inverse score != 1")
	}
}

func TestRunSimulationDefaults(t *testing.T) {
	rep, err := RunSimulation(SimulationConfig{
		Objects:         100,
		RequestsPerTick: 20,
		BudgetPerTick:   10,
		Warmup:          20,
		Ticks:           50,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ticks != 50 || rep.Requests != 1000 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MeanScore <= 0 || rep.MeanScore > 1 {
		t.Fatalf("mean score = %v", rep.MeanScore)
	}
	if rep.MeanRecency <= 0 || rep.MeanRecency > 1 {
		t.Fatalf("mean recency = %v", rep.MeanRecency)
	}
	if rep.CacheHitRate <= 0 || rep.CacheHitRate > 1 {
		t.Fatalf("hit rate = %v", rep.CacheHitRate)
	}
	if rep.ServerUpdates == 0 {
		t.Fatal("no server updates")
	}
}

func TestRunSimulationAllPolicies(t *testing.T) {
	for _, pol := range []string{
		"on-demand-knapsack", "on-demand-stale", "on-demand-lowest-recency",
		"async-round-robin", "async-freshness", "async-on-update", "hybrid",
	} {
		rep, err := RunSimulation(SimulationConfig{
			Objects:         50,
			Policy:          pol,
			RequestsPerTick: 10,
			BudgetPerTick:   5,
			Access:          "zipf",
			Warmup:          10,
			Ticks:           30,
			Seed:            2,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if rep.Requests != 300 {
			t.Fatalf("%s: requests = %d", pol, rep.Requests)
		}
	}
}

func TestRunSimulationBoundedCache(t *testing.T) {
	for _, repl := range []string{"lru", "lfu", "size", "stalest", "gds"} {
		rep, err := RunSimulation(SimulationConfig{
			Sizes:           []int64{4, 2, 6, 1, 3, 5, 2, 2, 7, 1},
			Policy:          "on-demand-stale",
			RequestsPerTick: 10,
			BudgetPerTick:   10,
			CacheCapacity:   12,
			Replacement:     repl,
			Access:          "zipf",
			Warmup:          10,
			Ticks:           40,
			Seed:            3,
		})
		if err != nil {
			t.Fatalf("%s: %v", repl, err)
		}
		if rep.MeanScore < 0 || rep.MeanScore > 1 {
			t.Fatalf("%s: score = %v", repl, rep.MeanScore)
		}
	}
}

func TestRunSimulationTargets(t *testing.T) {
	rep, err := RunSimulation(SimulationConfig{
		Objects:         50,
		Policy:          "on-demand-knapsack",
		RequestsPerTick: 20,
		BudgetPerTick:   5,
		TargetLo:        0.1,
		TargetHi:        0.5,
		Warmup:          10,
		Ticks:           30,
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lenient targets: most stale copies still meet them, so scores are
	// high even with a small budget.
	if rep.MeanScore < 0.7 {
		t.Fatalf("lenient-target mean score = %v", rep.MeanScore)
	}
}

func TestRunSimulationValidation(t *testing.T) {
	base := SimulationConfig{Objects: 10, RequestsPerTick: 1, Warmup: 1, Ticks: 10, Seed: 1}
	bad := base
	bad.Objects = 0
	bad.Sizes = nil
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("no objects accepted")
	}
	bad = base
	bad.Policy = "bogus"
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("bogus policy accepted")
	}
	bad = base
	bad.Access = "bogus"
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("bogus access accepted")
	}
	bad = base
	bad.Replacement = "bogus"
	bad.CacheCapacity = 5
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("bogus replacement accepted")
	}
	bad = base
	bad.Ticks = 0
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("zero ticks accepted")
	}
	bad = base
	bad.TargetLo = 0.5
	bad.TargetHi = 0.2
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("inverted target range accepted")
	}
	bad = base
	bad.UpdatePeriod = -1
	if _, err := RunSimulation(bad); err == nil {
		t.Fatal("negative update period accepted")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	cfg := SimulationConfig{
		Objects: 80, Policy: "on-demand-knapsack", RequestsPerTick: 25,
		BudgetPerTick: 8, Access: "zipf", Warmup: 15, Ticks: 40, Seed: 99,
	}
	a, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed simulations differ:\n%+v\n%+v", a, b)
	}
	if math.IsNaN(a.MeanScore) {
		t.Fatal("NaN score")
	}
}
