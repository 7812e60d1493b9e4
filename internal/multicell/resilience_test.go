package multicell

import (
	"fmt"
	"strings"
	"testing"

	"mobicache/internal/basestation"
	"mobicache/internal/fault"
	"mobicache/internal/resilience"
	"mobicache/internal/server"
)

// outageFetcher builds each cell's fetch path over a one-server schedule
// seeded seed+cell with the given outage window.
func outageFetcher(seed uint64, w fault.Window, retry basestation.RetryConfig) func(int, *server.Server) (basestation.Fetcher, basestation.RetryConfig, error) {
	return func(cell int, srv *server.Server) (basestation.Fetcher, basestation.RetryConfig, error) {
		s := fault.MustSchedule(1, seed+uint64(cell))
		if err := s.AddOutage(0, w); err != nil {
			return nil, retry, err
		}
		fs, err := server.NewFaultyServer(srv, s, nil)
		if err != nil {
			return nil, retry, err
		}
		return fs, retry, nil
	}
}

// TestEmptyResilienceIsIdentity pins the no-op guarantees: a cell
// schedule with no windows, and a breaker that never sees a failure,
// must both reproduce the plain run bit for bit.
func TestEmptyResilienceIsIdentity(t *testing.T) {
	run := func(mutate func(*Config)) string {
		cfg := baseConfig()
		mutate(&cfg)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		// Blank the resilience accounting before comparing: the plain
		// run has no breakers, so only behaviour must match.
		rep.ShedRequests, rep.ShortCircuits, rep.BreakerTrips = 0, 0, 0
		rep.FailedDownloads, rep.StaleFallbacks = 0, 0
		return fmt.Sprintf("%#v", rep)
	}
	plain := run(func(*Config) {})
	emptySched := run(func(c *Config) { c.CellFaults = fault.MustCellSchedule(c.Cells) })
	if emptySched != plain {
		t.Fatalf("empty cell schedule diverges:\nplain: %s\ngot:   %s", plain, emptySched)
	}
	// A breaker over a fault-free fetch path stays closed forever and
	// admission far above the request rate never sheds.
	idleBreaker := run(func(c *Config) {
		c.Resilience = &resilience.Config{
			Breaker:   resilience.BreakerConfig{FailureThreshold: 3},
			Admission: resilience.Admission{MaxRequestsPerTick: 100000},
		}
	})
	if idleBreaker != plain {
		t.Fatalf("idle breaker diverges:\nplain: %s\ngot:   %s", plain, idleBreaker)
	}
}

// TestCellBlackoutReroutes pins the failure-domain accounting: with one
// cell down, every one of its requests lands on the nearest live cell —
// none lost, total served conserved against the fault-free run.
func TestCellBlackoutReroutes(t *testing.T) {
	run := func(cs *fault.CellSchedule) Report {
		cfg := baseConfig()
		cfg.CellFaults = cs
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(80)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil)

	cs := fault.MustCellSchedule(3)
	if err := cs.AddOutage(1, fault.Window{From: 20, To: 50}); err != nil {
		t.Fatal(err)
	}
	rep := run(cs)
	if rep.CellDownTicks != 30 {
		t.Errorf("CellDownTicks = %d, want 30", rep.CellDownTicks)
	}
	if rep.Reroutes == 0 {
		t.Error("no requests rerouted during a 30-tick cell outage")
	}
	if rep.LostRequests != 0 {
		t.Errorf("LostRequests = %d with live neighbours available", rep.LostRequests)
	}
	// Conservation: the generation draws are identical (rerouting never
	// consumes randomness), so every request the plain run served is
	// served somewhere — rerouted, not dropped.
	if rep.Requests != plain.Requests {
		t.Errorf("served %d requests, fault-free run served %d", rep.Requests, plain.Requests)
	}
	// The down cell serves nothing inside its window, so its share drops
	// and its upward neighbour (cell 2, the reroute target) absorbs it.
	if rep.PerCellRequests[1] >= plain.PerCellRequests[1] {
		t.Errorf("down cell served %d >= fault-free %d", rep.PerCellRequests[1], plain.PerCellRequests[1])
	}
	if rep.PerCellRequests[2] <= plain.PerCellRequests[2] {
		t.Errorf("reroute target served %d <= fault-free %d", rep.PerCellRequests[2], plain.PerCellRequests[2])
	}

	// Total blackout: with every cell down there is nowhere to reroute,
	// so the window's requests are lost — and exactly accounted for.
	all := fault.MustCellSchedule(3)
	if err := all.AddOutage(fault.AllCells, fault.Window{From: 20, To: 30}); err != nil {
		t.Fatal(err)
	}
	dark := run(all)
	if dark.CellDownTicks != 30 { // 3 cells x 10 ticks
		t.Errorf("blackout CellDownTicks = %d, want 30", dark.CellDownTicks)
	}
	if dark.LostRequests == 0 {
		t.Error("total blackout lost no requests")
	}
	if dark.Reroutes != 0 {
		t.Errorf("Reroutes = %d during total blackout, want 0", dark.Reroutes)
	}
	if dark.Requests+dark.LostRequests != plain.Requests {
		t.Errorf("served %d + lost %d != fault-free %d", dark.Requests, dark.LostRequests, plain.Requests)
	}
}

// TestBreakerTripsAcrossCells drives every cell's fetch path through a
// long upstream outage and checks the breakers trip and the stations fall
// back to stale service instead of burning retries all outage long.
func TestBreakerTripsAcrossCells(t *testing.T) {
	cfg := baseConfig()
	cfg.NewFetcher = outageFetcher(0, fault.Window{From: 20, To: 70}, basestation.RetryConfig{MaxAttempts: 2})
	cfg.Resilience = &resilience.Config{
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenTicks: 8},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerTrips == 0 {
		t.Error("no breaker tripped through a 50-tick upstream outage")
	}
	if rep.StaleFallbacks == 0 {
		t.Error("no stale fallbacks while breakers were open")
	}
	if rep.FailedDownloads == 0 {
		t.Error("no failed downloads recorded during the outage")
	}
}

// TestResilienceConfigRejections covers the new validation paths.
func TestResilienceConfigRejections(t *testing.T) {
	cfg := baseConfig()
	cfg.CellFaults = fault.MustCellSchedule(2) // deployment has 3 cells
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "covers 2 cells") {
		t.Errorf("mismatched cell schedule: err = %v", err)
	}
	cfg = baseConfig()
	cfg.Resilience = &resilience.Config{Admission: resilience.Admission{MaxRequestsPerTick: -1}}
	if _, err := New(cfg); err == nil || !strings.HasPrefix(err.Error(), "multicell: ") {
		t.Errorf("negative admission: err = %v", err)
	}
	cfg = baseConfig()
	cfg.NewFetcher = func(int, *server.Server) (basestation.Fetcher, basestation.RetryConfig, error) {
		return nil, basestation.RetryConfig{}, fmt.Errorf("boom")
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "cell 0 fetch path") {
		t.Errorf("fetch-fault constructor error: err = %v", err)
	}
}

// TestAdmissionShedsUnderOverload arms a tiny per-tick budget and checks
// the engine sheds deterministically and reports it.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	run := func() Report {
		cfg := baseConfig()
		cfg.RequestProb = 0.9
		cfg.Resilience = &resilience.Config{
			Admission: resilience.Admission{MaxRequestsPerTick: 5},
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.ShedRequests == 0 {
		t.Fatal("overloaded system shed nothing")
	}
	if again := run(); fmt.Sprintf("%#v", again) != fmt.Sprintf("%#v", rep) {
		t.Error("overload shedding not deterministic across runs")
	}
}
