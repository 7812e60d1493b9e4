package basestation

import (
	"testing"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/fault"
	"mobicache/internal/policy"
	"mobicache/internal/server"
)

// faultStation builds a 10-object unit-size station over a FaultyServer
// with the given schedule and retry config, using the stale-refresh
// on-demand policy (deterministic, no rng of its own).
func faultStation(t *testing.T, sched *fault.Schedule, retry RetryConfig, latency server.LatencyModel) (*Station, *server.Server) {
	t.Helper()
	cat, err := catalog.Uniform(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, catalog.NewPeriodicAll(cat, 1))
	fs, err := server.NewFaultyServer(srv, sched, latency)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{
		Catalog: cat,
		Server:  srv,
		Policy:  policy.OnDemandStale{},
		Fetcher: fs,
		Retry:   retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, srv
}

// warmCache fills the cache with fresh copies at t=0.
func warmCache(t *testing.T, st *Station) {
	t.Helper()
	for id := 0; id < 10; id++ {
		if err := st.Cache().Put(catalog.ID(id), 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func req(obj int) []client.Request {
	return []client.Request{{Client: 0, Object: catalog.ID(obj), Target: 1}}
}

func TestRetryConfigValidation(t *testing.T) {
	cat, err := catalog.Uniform(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, nil)
	for _, retry := range []RetryConfig{
		{MaxAttempts: -1},
		{BaseBackoff: -1},
		{MaxBackoff: -1},
		{Timeout: -0.5},
	} {
		if _, err := New(Config{Catalog: cat, Server: srv, Policy: policy.OnDemandStale{}, Retry: retry}); err == nil {
			t.Errorf("retry %+v accepted", retry)
		}
	}
}

// TestFaultFreeFetcherMatchesDirectPath locks that installing a fetcher
// with an empty schedule changes no observable outcome versus the direct
// server path.
func TestFaultFreeFetcherMatchesDirectPath(t *testing.T) {
	run := func(withFetcher bool) Totals {
		cat, err := catalog.Uniform(10, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cat, catalog.NewPeriodicAll(cat, 2))
		cfg := Config{Catalog: cat, Server: srv, Policy: policy.OnDemandStale{}, CompulsoryMisses: true}
		if withFetcher {
			fs, err := server.NewFaultyServer(srv, fault.MustSchedule(1, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fetcher = fs
			cfg.Retry = RetryConfig{MaxAttempts: 3, BaseBackoff: 0.1, Timeout: 10}
		}
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := client.NewGenerator(client.GeneratorConfig{Catalog: cat, RatePerTick: 5, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		totals, err := st.Run(0, 50, gen)
		if err != nil {
			t.Fatal(err)
		}
		return totals
	}
	direct, faulty := run(false), run(true)
	if direct != faulty {
		t.Fatalf("zero-fault fetcher diverged from direct path:\ndirect %+v\nfaulty %+v", direct, faulty)
	}
}

func TestOutageFallsBackToStaleCopy(t *testing.T) {
	sched := fault.MustSchedule(1, 1)
	// Total outage over the whole run.
	if err := sched.AddOutage(0, fault.Window{From: 0, To: 1000}); err != nil {
		t.Fatal(err)
	}
	st, _ := faultStation(t, sched, RetryConfig{MaxAttempts: 2}, nil)
	warmCache(t, st)
	// Tick 1: the master updates, the policy wants a refresh of object 3,
	// the fetch fails both attempts, and the request is served the stale
	// copy scored by the recency curve.
	res, err := st.RunTick(1, req(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyDownloads != 0 || res.FailedDownloads != 1 || res.Retries != 1 || res.StaleFallbacks != 1 {
		t.Fatalf("tick result %+v: want 0 policy downloads, 1 failed, 1 retry, 1 stale fallback", res)
	}
	// One master update missed: recency 1/2, inverse score 1/(1+|1/2-1|) = 2/3.
	if want := 2.0 / 3.0; res.ScoreSum != want {
		t.Errorf("score %v, want %v (stale copy scored by recency curve)", res.ScoreSum, want)
	}
	if res.RecencySum != 0.5 {
		t.Errorf("recency %v, want 0.5", res.RecencySum)
	}
	if res.DownloadUnits != 0 {
		t.Errorf("download units %v, want 0", res.DownloadUnits)
	}
}

func TestCompulsoryMissFailureScoresZeroOncePerTick(t *testing.T) {
	sched := fault.MustSchedule(1, 1)
	if err := sched.AddOutage(0, fault.Window{From: 0, To: 1000}); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Uniform(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, nil)
	fs, err := server.NewFaultyServer(srv, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{
		Catalog:          cat,
		Server:           srv,
		Policy:           policy.OnDemandStale{},
		CompulsoryMisses: true,
		Fetcher:          fs,
		Retry:            RetryConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Empty cache, three requests for the same absent object. The policy
	// first tries it (stale/absent), fails; the compulsory path must not
	// re-attempt within the tick.
	reqs := append(append(req(4), req(4)...), req(4)...)
	res, err := st.RunTick(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDownloads != 1 || res.Retries != 2 {
		t.Fatalf("result %+v: want exactly 1 failed download (single attempt cycle per tick), 2 retries", res)
	}
	if res.ScoreSum != 0 || res.MissDownloads != 0 || res.StaleFallbacks != 0 {
		t.Fatalf("result %+v: absent object during outage must score 0 with no fallback", res)
	}
	if fs.Stats().Attempts != 3 {
		t.Fatalf("fetch attempts %d, want 3 (no re-hammering within the tick)", fs.Stats().Attempts)
	}
}

func TestTimeoutAbandonsSlowFetch(t *testing.T) {
	sched := fault.MustSchedule(1, 1)
	// 10x latency spike at ticks [5, 6).
	if err := sched.AddSpike(0, fault.Window{From: 5, To: 6}, 10); err != nil {
		t.Fatal(err)
	}
	st, _ := faultStation(t, sched, RetryConfig{MaxAttempts: 3, Timeout: 5}, server.ConstantLatency(1))
	warmCache(t, st)
	var totals Totals
	// Normal tick: latency 1 <= timeout, download succeeds.
	res, err := st.RunTick(1, req(2))
	if err != nil {
		t.Fatal(err)
	}
	totals.Add(res)
	if res.PolicyDownloads != 1 || res.FailedDownloads != 0 {
		t.Fatalf("normal tick %+v: want a clean download", res)
	}
	if res.FetchLatency != 1 {
		t.Errorf("fetch latency %v, want 1", res.FetchLatency)
	}
	// Spike tick: each attempt costs 10 > timeout 5 — abandoned after the
	// first attempt even though attempts remain.
	res, err = st.RunTick(5, req(3))
	if err != nil {
		t.Fatal(err)
	}
	totals.Add(res)
	if res.FailedDownloads != 1 || res.Retries != 0 || res.StaleFallbacks != 1 {
		t.Fatalf("spike tick %+v: want 1 failed download with no retries, 1 stale fallback", res)
	}
	if res.FetchLatency != 10 {
		t.Errorf("spike fetch latency %v, want 10", res.FetchLatency)
	}
	// Succeeded and abandoned downloads both bill their fetch time.
	if n := totals.Downloads() + totals.FailedDownloads; n != 2 || totals.FetchLatency != 11 {
		t.Errorf("%d fetches costing %v in total, want 2 costing 11", n, totals.FetchLatency)
	}
}

func TestBackoffCountsAgainstTimeout(t *testing.T) {
	sched := fault.MustSchedule(1, 1)
	if err := sched.AddOutage(0, fault.Window{From: 0, To: 1000}); err != nil {
		t.Fatal(err)
	}
	// Each attempt costs 1; backoff 2, 4 (capped at 3). With timeout 6:
	// attempt 1 (elapsed 1) -> backoff 2 (3) -> attempt 2 (4) -> backoff
	// capped 3 (7) -> attempt 3 pushes elapsed to 8 > 6: the third
	// attempt's result is discarded by the timeout.
	st, _ := faultStation(t, sched, RetryConfig{MaxAttempts: 5, BaseBackoff: 2, MaxBackoff: 3, Timeout: 6}, server.ConstantLatency(1))
	warmCache(t, st)
	res, err := st.RunTick(1, req(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDownloads != 1 || res.Retries != 2 {
		t.Fatalf("result %+v: want failure after 3 attempts (2 retries), timeout cut before attempts 4-5", res)
	}
	if res.FetchLatency != 8 {
		t.Errorf("fetch latency %v, want 8 (3 attempts + backoffs 2 and 3)", res.FetchLatency)
	}
}

// TestFaultTickAllocationFree locks that the fault layer adds no
// steady-state allocations: a station fetching through an installed
// schedule (with failing downloads, retries, and fallbacks) allocates no
// more per tick than the same policy on the ideal direct path. (The
// policy itself may allocate; the fault machinery must not add to it.)
func TestFaultTickAllocationFree(t *testing.T) {
	measure := func(faulty bool) float64 {
		var st *Station
		if faulty {
			sched := fault.MustSchedule(1, 1)
			if err := sched.AddOutage(0, fault.Window{From: 0, To: 2, Every: 4}); err != nil {
				t.Fatal(err)
			}
			st, _ = faultStation(t, sched, RetryConfig{MaxAttempts: 2, BaseBackoff: 0.5}, server.ConstantLatency(1))
		} else {
			cat, err := catalog.Uniform(10, 1)
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(cat, catalog.NewPeriodicAll(cat, 1))
			st, err = New(Config{Catalog: cat, Server: srv, Policy: policy.OnDemandStale{}})
			if err != nil {
				t.Fatal(err)
			}
		}
		warmCache(t, st)
		reqs := req(3)
		tick := 1
		if _, err := st.RunTick(tick, reqs); err != nil { // warm
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
	direct, faulty := measure(false), measure(true)
	if faulty > direct {
		t.Errorf("fault-path tick allocates %v times vs %v on the direct path; the fault layer must add none", faulty, direct)
	}
}
