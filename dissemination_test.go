package mobicache

import (
	"reflect"
	"testing"
)

// TestRunSimulationDisseminationStrategies runs every dissemination
// strategy through the facade: each must complete, answer every request,
// and report its own strategy name and counters.
func TestRunSimulationDisseminationStrategies(t *testing.T) {
	for _, strategy := range []string{"push-ts", "push-at", "broadcast-flat", "broadcast-disk", "hybrid-pushpull"} {
		rep, err := RunSimulation(SimulationConfig{
			Objects:         64,
			UpdatePeriod:    5,
			RequestsPerTick: 20,
			Access:          "zipf",
			Warmup:          20,
			Ticks:           100,
			Seed:            42,
			Dissemination:   &DisseminationConfig{Strategy: strategy, Interval: 10, SleepProb: 0.2},
		})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if rep.Dissemination != strategy {
			t.Fatalf("%s: report names strategy %q", strategy, rep.Dissemination)
		}
		if rep.Requests != 2000 {
			t.Fatalf("%s: %d requests, want 2000", strategy, rep.Requests)
		}
		if rep.MeanScore <= 0 || rep.MeanScore > 1 {
			t.Fatalf("%s: mean score %v out of (0,1]", strategy, rep.MeanScore)
		}
		switch strategy {
		case "push-ts", "push-at":
			if rep.InvalidationReports == 0 || rep.InvalidatedEntries == 0 {
				t.Fatalf("%s: no invalidation traffic: %+v", strategy, rep)
			}
			if rep.Downloads == 0 {
				t.Fatalf("%s: terminal misses never downloaded", strategy)
			}
		default:
			if rep.PushServed+rep.PullServed != rep.Requests {
				t.Fatalf("%s: push+pull %d != requests %d", strategy, rep.PushServed+rep.PullServed, rep.Requests)
			}
			if rep.PushUnits == 0 || rep.MeanWaitSlots <= 0 {
				t.Fatalf("%s: broadcast cost missing: %+v", strategy, rep)
			}
		}
	}
}

// TestDisseminationNilAndOnDemandIdentical confirms the default path is
// untouched: a nil Dissemination and an explicit "on-demand" strategy
// produce byte-identical reports from the station engine.
func TestDisseminationNilAndOnDemandIdentical(t *testing.T) {
	base := SimulationConfig{
		Objects:         50,
		BudgetPerTick:   8,
		RequestsPerTick: 25,
		Access:          "linear",
		Warmup:          10,
		Ticks:           60,
		Seed:            7,
	}
	a, err := RunSimulation(base)
	if err != nil {
		t.Fatal(err)
	}
	withCfg := base
	withCfg.Dissemination = &DisseminationConfig{Strategy: "on-demand"}
	b, err := RunSimulation(withCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("on-demand reports diverge:\n%+v\n%+v", a, b)
	}
	if a.Dissemination != "" {
		t.Fatalf("station path stamped dissemination %q", a.Dissemination)
	}
}

// TestDisseminationConflictsRejected pins the config validation: a push
// strategy cannot be combined with a refresh policy or the resilience
// layer, and unknown strategy names fail fast.
func TestDisseminationConflictsRejected(t *testing.T) {
	base := SimulationConfig{Objects: 32, RequestsPerTick: 5, Ticks: 10, Seed: 1}
	cases := []struct {
		name   string
		mutate func(*SimulationConfig)
	}{
		{"unknown strategy", func(c *SimulationConfig) {
			c.Dissemination = &DisseminationConfig{Strategy: "rumor-mill"}
		}},
		{"policy conflict", func(c *SimulationConfig) {
			c.Policy = "async-round-robin"
			c.Dissemination = &DisseminationConfig{Strategy: "push-ts"}
		}},
		{"resilience conflict", func(c *SimulationConfig) {
			c.Resilience = &ResilienceConfig{MaxRequestsPerTick: 10}
			c.Dissemination = &DisseminationConfig{Strategy: "broadcast-flat"}
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := RunSimulation(cfg); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestMulticellDisseminationDeterministic runs a push-ts multi-cell
// deployment with a cell outage twice: the reports must be identical and
// carry the per-strategy counters aggregated across cells.
func TestMulticellDisseminationDeterministic(t *testing.T) {
	base := MulticellConfig{
		Cells:         4,
		Objects:       60,
		UpdatePeriod:  5,
		Clients:       80,
		MeanResidence: 30,
		RequestProb:   0.5,
		Access:        "zipf",
		Ticks:         300,
		Seed:          123,
		CellOutages:   []CellOutage{{Cell: 1, From: 50, To: 120}},
		Dissemination: &DisseminationConfig{Strategy: "push-ts", Interval: 10, SleepProb: 0.1},
	}
	rep, err := RunMulticell(base)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunMulticell(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Fatalf("second run differs:\nfirst:  %+v\nsecond: %+v", rep, again)
	}
	if rep.Dissemination != "push-ts" {
		t.Fatalf("report names strategy %q", rep.Dissemination)
	}
	if rep.InvalidationReports == 0 || rep.Downloads == 0 {
		t.Fatalf("push traffic missing: %+v", rep)
	}
	if rep.Reroutes == 0 || rep.CellDownTicks != 70 {
		t.Fatalf("cell outage ignored: reroutes=%d downTicks=%d", rep.Reroutes, rep.CellDownTicks)
	}

	// The same deployment rejects strategy-incompatible layers.
	for _, mutate := range []func(*MulticellConfig){
		func(c *MulticellConfig) { c.CacheSharing = true },
		func(c *MulticellConfig) { c.Resilience = &ResilienceConfig{MaxRequestsPerTick: 5} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := RunMulticell(cfg); err == nil {
			t.Fatal("incompatible layer accepted alongside dissemination")
		}
	}
}

// TestDisseminationUnderFaultsDeterministic runs push-ts over a faulty
// fixed network twice: failed refetches must surface in the report and
// identical seeds must replay identically.
func TestDisseminationUnderFaultsDeterministic(t *testing.T) {
	cfg := SimulationConfig{
		Objects:         48,
		UpdatePeriod:    4,
		RequestsPerTick: 30,
		Access:          "zipf",
		Warmup:          10,
		Ticks:           80,
		Seed:            99,
		Dissemination:   &DisseminationConfig{Strategy: "push-ts", Interval: 8, SleepProb: 0.3},
		Fault: &FaultConfig{
			FailureProb: 0.3,
			Outages:     []FaultWindow{{Server: AllServers, From: 30, To: 40, Every: 0}},
			Retry:       RetryConfig{MaxAttempts: 2, BaseBackoff: 0.5},
		},
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
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.FailedDownloads == 0 || a.Retries == 0 {
		t.Fatalf("fault path silent: %+v", a)
	}
	if a.MeanScore >= 1 {
		t.Fatalf("mean score %v unaffected by faults", a.MeanScore)
	}
}
