package basestation

import (
	"reflect"
	"testing"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/fault"
	"mobicache/internal/policy"
	"mobicache/internal/resilience"
	"mobicache/internal/server"
)

// breakerStation is faultStation plus a breaker and optional admission.
func breakerStation(t *testing.T, sched *fault.Schedule, retry RetryConfig, bcfg resilience.BreakerConfig, adm resilience.Admission) *Station {
	t.Helper()
	cat, err := catalog.Uniform(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, 1))
	fs, err := server.NewFaultyServer(srv, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{
		Catalog:   cat,
		Server:    srv,
		Policy:    policy.OnDemandStale{},
		Fetcher:   fs,
		Retry:     retry,
		Breaker:   resilience.MustBreaker(bcfg),
		Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestResilienceConfigValidation(t *testing.T) {
	cat, err := catalog.Uniform(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, nil)
	base := Config{Catalog: cat, Server: srv, Policy: policy.OnDemandStale{}}

	cfg := base
	cfg.Admission = resilience.Admission{MaxRequestsPerTick: -1}
	if _, err := New(cfg); err == nil {
		t.Error("negative admission budget accepted")
	}
}

// TestBreakerWithoutFetcherMatchesUnarmed pins what a breaker armed
// without a Fetcher does: it gates the fault-free fetch path, never
// opens, and leaves every tick identical to the unarmed station's.
func TestBreakerWithoutFetcherMatchesUnarmed(t *testing.T) {
	run := func(brk *resilience.Breaker) []TickResult {
		cat, err := catalog.Uniform(10, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cat, catalog.NewPeriodicAll(cat, 2))
		st, err := New(Config{Catalog: cat, Server: srv, Policy: policy.OnDemandStale{}, CompulsoryMisses: true, Breaker: brk})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := client.NewGenerator(client.GeneratorConfig{Catalog: cat, RatePerTick: 5, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		var out []TickResult
		for tick := 0; tick < 50; tick++ {
			res, err := st.RunTick(tick, gen.Tick(tick))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	unarmed := run(nil)
	armed := run(resilience.MustBreaker(resilience.BreakerConfig{FailureThreshold: 1}))
	if !reflect.DeepEqual(armed, unarmed) {
		t.Fatalf("idle breaker changed the ticks:\narmed   %+v\nunarmed %+v", armed, unarmed)
	}
	var downloads int
	for _, res := range unarmed {
		downloads += res.PolicyDownloads + res.MissDownloads
	}
	if downloads == 0 {
		t.Fatal("inert fixture: no downloads for the breaker to gate")
	}
}

// TestBreakerDegradationLadderUnderOutage walks a total upstream outage:
// the breaker trips after the threshold, whole ticks go stale-only
// (no downloads, cached copies served as stale fallbacks), and half-open
// probes fire on schedule, each re-tripping against the dead server.
func TestBreakerDegradationLadderUnderOutage(t *testing.T) {
	sched := fault.MustSchedule(1, 1)
	if err := sched.AddOutage(0, fault.Window{From: 0, To: 1000}); err != nil {
		t.Fatal(err)
	}
	st := breakerStation(t, sched,
		RetryConfig{MaxAttempts: 3},
		resilience.BreakerConfig{FailureThreshold: 3, OpenTicks: 5},
		resilience.Admission{})
	warmCache(t, st)

	var tot Totals
	for tick := 0; tick < 20; tick++ {
		res, err := st.RunTick(tick, req(0))
		if err != nil {
			t.Fatal(err)
		}
		tot.Add(res)
		// Ticks 0-2 fail and trip; 3-6 are the first open window.
		switch {
		case tick <= 2:
			if res.Mode != resilience.ModeFull || res.FailedDownloads != 1 {
				t.Fatalf("tick %d: %+v, want a full-mode failed download", tick, res)
			}
		case tick <= 6:
			if res.Mode != resilience.ModeStaleOnly {
				t.Fatalf("tick %d: mode %v, want stale-only", tick, res.Mode)
			}
			if res.FailedDownloads != 0 || res.Retries != 0 || res.FetchLatency != 0 {
				t.Fatalf("tick %d: %+v, stale-only tick must not touch the fetch path", tick, res)
			}
			if res.StaleFallbacks != 1 {
				t.Fatalf("tick %d: %d stale fallbacks, want 1", tick, res.StaleFallbacks)
			}
		case tick == 7:
			if res.Mode != resilience.ModeFull || res.BreakerProbes != 1 || res.BreakerTrips != 1 {
				t.Fatalf("tick %d: %+v, want the half-open probe to fail and re-trip", tick, res)
			}
		}
	}
	// Trip at 2, probes at 7/12/17 each re-tripping; open windows 3-6,
	// 8-11, 13-16, 18-19.
	if tot.BreakerTrips != 4 || tot.BreakerProbes != 3 {
		t.Errorf("trips %d probes %d, want 4 and 3", tot.BreakerTrips, tot.BreakerProbes)
	}
	if tot.DegradedTicks != 14 {
		t.Errorf("degraded ticks %d, want 14", tot.DegradedTicks)
	}
	if tot.FailedDownloads != 6 {
		t.Errorf("failed downloads %d, want 6 (3 initial + 3 probes)", tot.FailedDownloads)
	}
	if tot.Requests != 20 || tot.StaleFallbacks != 20 {
		t.Errorf("requests %d fallbacks %d, want every request served stale", tot.Requests, tot.StaleFallbacks)
	}

	// The breaker must save retry budget versus raw retries: the same
	// outage without a breaker burns MaxAttempts on every tick.
	raw, _ := faultStation(t, sched, RetryConfig{MaxAttempts: 3}, nil)
	warmCache(t, raw)
	var rt Totals
	for tick := 0; tick < 20; tick++ {
		res, err := raw.RunTick(tick, req(0))
		if err != nil {
			t.Fatal(err)
		}
		rt.Add(res)
	}
	if rt.Retries <= tot.Retries || rt.FailedDownloads <= tot.FailedDownloads {
		t.Errorf("breaker saved nothing: raw retries %d failed %d vs breaker retries %d failed %d",
			rt.Retries, rt.FailedDownloads, tot.Retries, tot.FailedDownloads)
	}
}

// TestBreakerRecoversWhenOutageEnds locks the close path: once the
// upstream is back, the next half-open probe succeeds and the station
// returns to full service.
func TestBreakerRecoversWhenOutageEnds(t *testing.T) {
	sched := fault.MustSchedule(1, 1)
	if err := sched.AddOutage(0, fault.Window{From: 0, To: 10}); err != nil {
		t.Fatal(err)
	}
	st := breakerStation(t, sched,
		RetryConfig{MaxAttempts: 1},
		resilience.BreakerConfig{FailureThreshold: 2, OpenTicks: 4},
		resilience.Admission{})
	warmCache(t, st)

	var results []TickResult
	for tick := 0; tick < 20; tick++ {
		res, err := st.RunTick(tick, req(0))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	// Fail at 0,1 → trip at 1; open 2-4; probes at 5 and 9 fail against
	// the outage and re-trip; the probe at 13 succeeds (outage ended at
	// 10) → closed from then on.
	if results[13].BreakerProbes != 1 || results[13].FailedDownloads != 0 {
		t.Fatalf("tick 13: %+v, want a successful probe", results[13])
	}
	for tick := 13; tick < 20; tick++ {
		res := results[tick]
		if res.Mode != resilience.ModeFull {
			t.Errorf("tick %d: mode %v after recovery, want full", tick, res.Mode)
		}
		if res.FailedDownloads != 0 || res.StaleFallbacks != 0 {
			t.Errorf("tick %d: %+v, want clean service after recovery", tick, res)
		}
		if res.PolicyDownloads != 1 {
			t.Errorf("tick %d: %d policy downloads, want 1", tick, res.PolicyDownloads)
		}
	}
}

// TestShedLowestProfitFirst pins the deterministic shed set: requests
// whose cached copies are already fresh (zero refresh profit) go first,
// survivors keep their arrival order, and shed requests appear in no
// service counter.
func TestShedLowestProfitFirst(t *testing.T) {
	cat, err := catalog.Uniform(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No update schedule: warmed copies stay fresh (recency 1, profit 0);
	// absent objects score 0.5 from Inverse(0, 1) → profit 0.5.
	srv := server.New(cat, nil)
	st, err := New(Config{
		Catalog:          cat,
		Server:           srv,
		Policy:           policy.OnDemandStale{},
		CompulsoryMisses: true,
		Admission:        resilience.Admission{MaxRequestsPerTick: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := st.Cache().Put(catalog.ID(id), 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []client.Request{
		{Client: 0, Object: 0, Target: 1}, // fresh: profit 0 → shed
		{Client: 1, Object: 7, Target: 1}, // miss: profit 0.5 → admitted
		{Client: 2, Object: 1, Target: 1}, // fresh: profit 0 → shed
		{Client: 3, Object: 8, Target: 1}, // miss: profit 0.5 → admitted
	}
	res, err := st.RunTick(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || res.Requests != 2 || res.Mode != resilience.ModeShed {
		t.Fatalf("result %+v: want 2 shed, 2 admitted, shed mode", res)
	}
	// The two misses survived: both downloaded and served at score 1.
	if res.PolicyDownloads+res.MissDownloads != 2 || res.ScoreSum != 2 {
		t.Fatalf("result %+v: want the two cache misses admitted and served fresh", res)
	}
	if !st.Cache().Contains(7) || !st.Cache().Contains(8) {
		t.Error("admitted misses were not downloaded")
	}

	// Equal profits tie-break on arrival order: the earliest requests
	// are shed first, so the last max survive.
	reqs = []client.Request{
		{Client: 0, Object: 4, Target: 1},
		{Client: 1, Object: 5, Target: 1},
		{Client: 2, Object: 6, Target: 1},
	}
	res, err = st.RunTick(1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1 || res.Requests != 2 {
		t.Fatalf("result %+v: want 1 shed of 3", res)
	}
	if st.Cache().Contains(4) || !st.Cache().Contains(5) || !st.Cache().Contains(6) {
		t.Error("tie-break shed the wrong request: want the earliest arrival dropped")
	}

	// Under the cap, nothing is shed and the mode stays full.
	res, err = st.RunTick(2, reqs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.Mode != resilience.ModeFull {
		t.Fatalf("result %+v: under-cap tick must not shed", res)
	}
}

// TestDegradedTickAllocationFree locks that the degraded path — shedding
// every tick while the breaker cycles through open windows — allocates no
// more per tick than the plain ideal path (the policy's own allocations).
func TestDegradedTickAllocationFree(t *testing.T) {
	measureDegraded := func() float64 {
		sched := fault.MustSchedule(1, 1)
		if err := sched.AddOutage(0, fault.Window{From: 0, To: 1000}); err != nil {
			t.Fatal(err)
		}
		st := breakerStation(t, sched,
			RetryConfig{MaxAttempts: 2},
			resilience.BreakerConfig{FailureThreshold: 2, OpenTicks: 4},
			resilience.Admission{MaxRequestsPerTick: 3})
		warmCache(t, st)
		reqs := []client.Request{
			{Client: 0, Object: 0, Target: 1},
			{Client: 1, Object: 1, Target: 1},
			{Client: 2, Object: 2, Target: 1},
			{Client: 3, Object: 3, Target: 1},
			{Client: 4, Object: 4, Target: 1},
		}
		tick := 0
		for ; tick < 10; tick++ { // warm scratch through a full breaker cycle
			if _, err := st.RunTick(tick, reqs); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := st.RunTick(tick, reqs); err != nil {
				t.Fatal(err)
			}
			tick++
		})
	}
	measureIdeal := func() float64 {
		cat, err := catalog.Uniform(10, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cat, catalog.NewPeriodicAll(cat, 1))
		st, err := New(Config{Catalog: cat, Server: srv, Policy: policy.OnDemandStale{}})
		if err != nil {
			t.Fatal(err)
		}
		warmCache(t, st)
		reqs := req(3)
		tick := 1
		if _, err := st.RunTick(tick, reqs); err != nil {
			t.Fatal(err)
		}
		tick++
		return testing.AllocsPerRun(200, func() {
			if _, err := st.RunTick(tick, reqs); err != nil {
				t.Fatal(err)
			}
			tick++
		})
	}
	ideal, degraded := measureIdeal(), measureDegraded()
	if degraded > ideal {
		t.Errorf("degraded tick allocates %v times vs %v ideal; shedding and the breaker must add none", degraded, ideal)
	}
}
