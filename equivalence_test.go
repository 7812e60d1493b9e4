package mobicache

import (
	"fmt"
	"reflect"
	"testing"
)

// tieFreeSimulation returns a single-cell configuration with no
// equal-profit knapsack ties: varied object sizes and continuous client
// target recencies make two equally-optimal-but-different plans
// vanishingly unlikely, so exact solvers (dp, incremental) must produce
// byte-identical reports, not merely equal scores. Unit sizes with
// target 1.0 would NOT have this property — see
// TestIncrementalSelectorMatchesDP in internal/core.
func tieFreeSimulation() SimulationConfig {
	sizes := make([]int64, 90)
	for i := range sizes {
		sizes[i] = 1 + int64(i%7)
	}
	return SimulationConfig{
		Sizes:           sizes,
		Solver:          "dp",
		Access:          "zipf",
		BudgetPerTick:   25,
		RequestsPerTick: 30,
		TargetLo:        0.3,
		TargetHi:        0.95,
		Warmup:          20,
		Ticks:           120,
		Seed:            42,
	}
}

// zeroFaultResilience arms every resilience feature without giving it
// anything to react to: no Fault config means the breaker sees only
// successes and never opens, and the admission cap sits above the
// request rate. The features must be pure pass-throughs.
func zeroFaultResilience() *ResilienceConfig {
	return &ResilienceConfig{
		BreakerFailures:    5,
		BreakerOpenTicks:   8,
		BreakerCloseAfter:  2,
		MaxRequestsPerTick: 1 << 20,
	}
}

// TestCrossFeatureEquivalenceSingleCell is the equivalence half of the
// cross-feature grid: on a tie-free workload, every {exact solver ×
// resilience on/off} combination reproduces the dp/no-resilience
// baseline report exactly. Greedy and certified are excluded — they
// carry weaker guarantees and legitimately pick different plans.
func TestCrossFeatureEquivalenceSingleCell(t *testing.T) {
	baseline, err := RunSimulation(tieFreeSimulation())
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Downloads == 0 || baseline.MeanScore <= 0 {
		t.Fatalf("inert baseline: %+v", baseline)
	}
	for _, solver := range []string{"dp", "incremental"} {
		for _, resilient := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/resilience=%v", solver, resilient), func(t *testing.T) {
				cfg := tieFreeSimulation()
				cfg.Solver = solver
				if resilient {
					cfg.Resilience = zeroFaultResilience()
				}
				rep, err := RunSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ShedRequests != 0 || rep.ShortCircuits != 0 || rep.BreakerTrips != 0 {
					t.Fatalf("zero-fault resilience took action: %+v", rep)
				}
				if !reflect.DeepEqual(rep, baseline) {
					t.Fatalf("report diverged from dp/no-resilience baseline:\n got %+v\nwant %+v", rep, baseline)
				}
			})
		}
	}
}

// TestCrossFeatureEquivalenceMulticell checks, for every solver kind,
// that the zero-fault resilience layer reproduces that solver's ideal
// baseline exactly on the serial tick loop (workers=1 in the subtest
// name; the engine has no other loop). Solvers are their own baselines
// here — the shared multi-cell workload uses unit sizes, where
// approximate solvers (and equal-profit ties) may legitimately differ
// from dp.
func TestCrossFeatureEquivalenceMulticell(t *testing.T) {
	base := func(solver string) MulticellConfig {
		return MulticellConfig{
			Cells:         3,
			Objects:       80,
			Solver:        solver,
			Access:        "zipf",
			BudgetPerTick: 10,
			Clients:       90,
			RequestProb:   0.3,
			CacheSharing:  true,
			Ticks:         120,
			Seed:          7,
		}
	}
	for _, solver := range []string{"dp", "greedy", "incremental", "certified"} {
		t.Run(solver, func(t *testing.T) {
			baseline, err := RunMulticell(base(solver))
			if err != nil {
				t.Fatal(err)
			}
			if baseline.Downloads == 0 || baseline.Handoffs == 0 {
				t.Fatalf("inert baseline: %+v", baseline)
			}
			t.Run("workers=1/resilience=true", func(t *testing.T) {
				cfg := base(solver)
				cfg.Resilience = zeroFaultResilience()
				rep, err := RunMulticell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ShedRequests != 0 || rep.ShortCircuits != 0 || rep.BreakerTrips != 0 {
					t.Fatalf("zero-fault resilience took action: %+v", rep)
				}
				if !reflect.DeepEqual(rep, baseline) {
					t.Fatalf("report diverged from ideal baseline:\n got %+v\nwant %+v", rep, baseline)
				}
			})
		})
	}
}
