package mobicache

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mobicache/internal/basestation"
	"mobicache/internal/dissemination"
	"mobicache/internal/server"
)

// buildStation builds cfg's on-demand cell and returns its knapsack
// station with the update server it ticks.
func buildStation(cfg SimulationConfig) (*basestation.Station, *server.Server, error) {
	c, err := buildCell(cfg)
	if err != nil {
		return nil, nil, err
	}
	st, ok := c.eng.(*basestation.Station)
	if !ok {
		return nil, nil, fmt.Errorf("strategy %q runs no station", cfg.Dissemination.Strategy)
	}
	return st, c.srv, nil
}

// eachStrategy runs check on base under every dissemination strategy,
// over the ideal fetch path and under the experiment runner's "flaky"
// profile (15% of fetches fail; three attempts with capped backoff).
// Push strategies replace the refresh policy, so their rows clear it.
func eachStrategy(t *testing.T, base SimulationConfig, check func(t *testing.T, cfg SimulationConfig)) {
	flaky := &FaultConfig{
		FailureProb: 0.15,
		Retry:       RetryConfig{MaxAttempts: 3, BaseBackoff: 0.5, MaxBackoff: 4},
	}
	for _, strat := range dissemination.Names() {
		for _, fault := range []*FaultConfig{nil, flaky} {
			cfg := base
			cfg.Dissemination = &DisseminationConfig{Strategy: strat}
			if strat != "on-demand" {
				cfg.Policy = ""
			}
			cfg.Fault = fault
			name := strat + "/ideal"
			if fault != nil {
				name = strat + "/flaky"
			}
			t.Run(name, func(t *testing.T) { check(t, cfg) })
		}
	}
}

// TestRunSimulationTicksMatchesRunSimulation pins the sampled entry
// point's contract under every strategy, with and without fetch faults:
// sample fires once per measured tick with 1-based counts, the last
// sampled report equals the returned report, and the returned report is
// identical to the unsampled RunSimulation's.
func TestRunSimulationTicksMatchesRunSimulation(t *testing.T) {
	base := SimulationConfig{
		Objects:         50,
		BudgetPerTick:   8,
		RequestsPerTick: 25,
		Access:          "zipf",
		Warmup:          10,
		Ticks:           40,
		Seed:            11,
	}
	eachStrategy(t, base, func(t *testing.T, cfg SimulationConfig) {
		want, err := RunSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var calls int
		var last SimulationReport
		got, err := RunSimulationTicks(cfg, func(n int, rep SimulationReport) error {
			calls++
			if n != calls {
				t.Fatalf("sample #%d reported n=%d", calls, n)
			}
			last = rep
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != cfg.Ticks {
			t.Fatalf("sample fired %d times, want %d", calls, cfg.Ticks)
		}
		if got != want {
			t.Fatalf("sampled run diverged from RunSimulation:\n%+v\n%+v", got, want)
		}
		if last != want {
			t.Fatalf("final sample diverged from returned report:\n%+v\n%+v", last, want)
		}
		unsampled, err := RunSimulationTicks(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if unsampled != want {
			t.Fatalf("nil-sample run diverged:\n%+v\n%+v", unsampled, want)
		}
	})
}

// TestRunSimulationTicksDissemination is the fails-before test for the
// sampled path under a push strategy: before RunSimulationTicks learned
// the dissemination branch, a push configuration silently ran the pull
// station and the dissemination counters stayed zero. The per-tick
// samples must come from the dissemination cell (monotone push traffic)
// and the final report must match the unsampled facade run.
func TestRunSimulationTicksDissemination(t *testing.T) {
	cfg := SimulationConfig{
		Objects:         64,
		UpdatePeriod:    5,
		RequestsPerTick: 20,
		Access:          "zipf",
		Warmup:          10,
		Ticks:           50,
		Seed:            42,
		Dissemination:   &DisseminationConfig{Strategy: "push-ts", Interval: 10},
	}
	want, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var prev, last SimulationReport
	got, err := RunSimulationTicks(cfg, func(n int, rep SimulationReport) error {
		calls++
		if n != calls {
			t.Fatalf("sample #%d reported n=%d", calls, n)
		}
		if rep.Dissemination != "push-ts" {
			t.Fatalf("sample %d stamped strategy %q", n, rep.Dissemination)
		}
		if rep.InvalidationReports < prev.InvalidationReports || rep.Requests < prev.Requests {
			t.Fatalf("sample %d regressed cumulative counters: %+v after %+v", n, rep, prev)
		}
		prev, last = rep, rep
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Ticks {
		t.Fatalf("sample fired %d times, want %d", calls, cfg.Ticks)
	}
	if got != want {
		t.Fatalf("sampled dissemination run diverged from RunSimulation:\n%+v\n%+v", got, want)
	}
	if last != want {
		t.Fatalf("final sample diverged from returned report:\n%+v\n%+v", last, want)
	}
	if got.InvalidationReports == 0 {
		t.Fatalf("push-ts run broadcast no invalidation reports: %+v", got)
	}
}

// TestRunSimulationTicksErrors covers the sampled entry point's error
// paths: invalid horizon, unknown dissemination strategy, a
// dissemination config that conflicts with the refresh policy, and a
// sampling callback that aborts the run.
func TestRunSimulationTicksErrors(t *testing.T) {
	good := SimulationConfig{
		Objects:         32,
		RequestsPerTick: 10,
		Warmup:          5,
		Ticks:           20,
		Seed:            3,
	}

	bad := good
	bad.Ticks = 0
	if _, err := RunSimulationTicks(bad, nil); err == nil {
		t.Fatal("zero-tick horizon accepted")
	}

	bad = good
	bad.Dissemination = &DisseminationConfig{Strategy: "carrier-pigeon"}
	if _, err := RunSimulationTicks(bad, nil); err == nil {
		t.Fatal("unknown dissemination strategy accepted")
	}

	bad = good
	bad.Policy = "threshold"
	bad.Dissemination = &DisseminationConfig{Strategy: "broadcast-flat"}
	if _, err := RunSimulationTicks(bad, nil); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("policy x dissemination conflict not rejected: %v", err)
	}

	boom := errors.New("stop here")
	for _, cfg := range []SimulationConfig{
		good,
		func() SimulationConfig {
			c := good
			c.Dissemination = &DisseminationConfig{Strategy: "hybrid-pushpull"}
			return c
		}(),
	} {
		_, err := RunSimulationTicks(cfg, func(n int, rep SimulationReport) error {
			if n >= 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("sample abort not propagated (dissemination=%v): %v", cfg.Dissemination, err)
		}
	}
}

// TestRunMulticellTicksMatchesRunMulticell pins the multi-cell sampled
// entry point: one sample per tick, final sample and return value equal
// the unsampled RunMulticell report, and sample errors abort the run.
func TestRunMulticellTicksMatchesRunMulticell(t *testing.T) {
	cfg := MulticellConfig{
		Cells:         3,
		Objects:       40,
		BudgetPerTick: 6,
		Clients:       30,
		RequestProb:   0.5,
		Access:        "zipf",
		Ticks:         30,
		Seed:          9,
	}
	want, err := RunMulticell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var last MulticellReport
	got, err := RunMulticellTicks(cfg, func(n int, rep MulticellReport) error {
		calls++
		if n != calls {
			t.Fatalf("sample #%d reported n=%d", calls, n)
		}
		last = rep
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Ticks {
		t.Fatalf("sample fired %d times, want %d", calls, cfg.Ticks)
	}
	if got.Ticks != want.Ticks || got.Requests != want.Requests || got.MeanScore != want.MeanScore || got.Handoffs != want.Handoffs {
		t.Fatalf("sampled multicell run diverged:\n%+v\n%+v", got, want)
	}
	if last.Requests != want.Requests || last.MeanScore != want.MeanScore {
		t.Fatalf("final sample diverged from returned report:\n%+v\n%+v", last, want)
	}

	if _, err := RunMulticellTicks(MulticellConfig{}, nil); err == nil {
		t.Fatal("empty multicell config accepted")
	}
	boom := errors.New("stop multicell")
	if _, err := RunMulticellTicks(cfg, func(int, MulticellReport) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("sample abort not propagated: %v", err)
	}
}
