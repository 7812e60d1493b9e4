package mobicache

import (
	"testing"
	"testing/quick"

	"mobicache/internal/rng"
)

// TestSimulationInvariantsProperty drives randomly configured end-to-end
// simulations and checks system-wide invariants: scores and recencies stay
// in range, policy downloads respect the budget, hit rates are sane, and
// runs are deterministic under a fixed seed.
func TestSimulationInvariantsProperty(t *testing.T) {
	policies := []string{
		"on-demand-knapsack", "on-demand-stale", "on-demand-lowest-recency",
		"async-round-robin", "async-freshness", "async-on-update", "hybrid",
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		cfg := SimulationConfig{
			Objects:         r.IntRange(10, 120),
			UpdatePeriod:    r.IntRange(1, 10),
			Policy:          policies[r.Intn(len(policies))],
			BudgetPerTick:   int64(r.IntRange(0, 30)),
			RequestsPerTick: r.IntRange(0, 40),
			Access:          []string{"uniform", "linear", "zipf"}[r.Intn(3)],
			Warmup:          r.IntRange(0, 20),
			Ticks:           r.IntRange(1, 60),
			Seed:            seed,
		}
		rep, err := RunSimulation(cfg)
		if err != nil {
			t.Logf("seed %d cfg %+v: %v", seed, cfg, err)
			return false
		}
		if rep.MeanScore < 0 || rep.MeanScore > 1 || rep.MeanRecency < 0 || rep.MeanRecency > 1 {
			t.Logf("seed %d: score %v recency %v out of range", seed, rep.MeanScore, rep.MeanRecency)
			return false
		}
		if rep.CacheHitRate < 0 || rep.CacheHitRate > 1 {
			t.Logf("seed %d: hit rate %v", seed, rep.CacheHitRate)
			return false
		}
		if rep.Requests != uint64(cfg.RequestsPerTick*cfg.Ticks) {
			t.Logf("seed %d: requests %d != %d", seed, rep.Requests, cfg.RequestsPerTick*cfg.Ticks)
			return false
		}
		// Download volume: the policy may spend at most budget units per
		// tick (warmup included), plus compulsory misses bounded by the
		// number of requests over the whole run.
		if cfg.BudgetPerTick > 0 {
			run := cfg.Warmup + cfg.Ticks
			maxPolicy := cfg.BudgetPerTick * int64(run)
			maxMisses := int64(cfg.RequestsPerTick * run)
			if rep.DownloadUnits > maxPolicy+maxMisses {
				t.Logf("seed %d: downloaded %d units > bound %d", seed, rep.DownloadUnits, maxPolicy+maxMisses)
				return false
			}
		}
		// Determinism.
		again, err := RunSimulation(cfg)
		if err != nil || again != rep {
			t.Logf("seed %d: non-deterministic rerun", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// faultCounters are the exact-match fault counters a scenario pins.
type faultCounters struct {
	FailedDownloads, Retries, StaleFallbacks uint64
}

// TestFaultScenariosDeterministic is the fault-injection harness: each
// scenario runs the full simulation against a seeded fault schedule and
// asserts EXACT counter values. The counts are pinned from the fixed
// seeds below; any change to the rng draw order, the retry loop, or the
// schedule semantics shows up as a diff here.
func TestFaultScenariosDeterministic(t *testing.T) {
	base := SimulationConfig{
		Objects:         50,
		UpdatePeriod:    1,
		Policy:          "on-demand-stale",
		RequestsPerTick: 20,
		Access:          "zipf",
		Warmup:          10,
		Ticks:           40,
		Seed:            12345,
	}
	scenarios := []struct {
		name  string
		fault FaultConfig
		tweak func(*SimulationConfig)
		want  faultCounters
		check func(t *testing.T, rep SimulationReport)
	}{
		{
			// A mid-run blackout of every upstream server: refreshes
			// fail for 10 ticks and clients ride out the gap on stale
			// copies.
			name: "blackout",
			fault: FaultConfig{
				Outages: []FaultWindow{{Server: AllServers, From: 20, To: 30}},
				Retry:   RetryConfig{MaxAttempts: 2, BaseBackoff: 0.5},
			},
			want: faultCounters{FailedDownloads: 127, Retries: 127, StaleFallbacks: 198},
			check: func(t *testing.T, rep SimulationReport) {
				if rep.StaleFallbacks == 0 || rep.StaleFallbacks >= rep.Requests {
					t.Errorf("blackout should stale-serve some but not all requests; got %d/%d", rep.StaleFallbacks, rep.Requests)
				}
			},
		},
		{
			// One upstream server out of four flapping: down 3 ticks out
			// of every 6. Only the quarter of the catalog it owns is
			// affected, and retries within a down tick cannot save a
			// fetch (the whole tick is inside the window).
			name: "flapping-server",
			fault: FaultConfig{
				Servers: 4,
				Outages: []FaultWindow{{Server: 2, From: 12, To: 15, Every: 6}},
				Retry:   RetryConfig{MaxAttempts: 3, BaseBackoff: 1, MaxBackoff: 4},
			},
			want: faultCounters{FailedDownloads: 61, Retries: 122, StaleFallbacks: 91},
		},
		{
			// A latency spike during the run: with base fetch latency 1
			// and an 8x spike, every attempt inside the window blows the
			// 5-unit fetch timeout, so spiked downloads are abandoned
			// after a single attempt (no retries burned).
			name: "latency-spike-burst",
			fault: FaultConfig{
				BaseLatency: 1,
				Spikes:      []FaultSpike{{FaultWindow: FaultWindow{Server: AllServers, From: 25, To: 35}, Factor: 8}},
				Retry:       RetryConfig{MaxAttempts: 2, BaseBackoff: 1, Timeout: 5},
			},
			want: faultCounters{FailedDownloads: 133, Retries: 0, StaleFallbacks: 194},
			check: func(t *testing.T, rep SimulationReport) {
				if rep.Retries != 0 {
					t.Errorf("spiked fetches must be abandoned by the timeout before any retry; got %d retries", rep.Retries)
				}
				if rep.MeanFetchLatency <= 1 {
					t.Errorf("mean fetch latency %v should exceed the base latency 1", rep.MeanFetchLatency)
				}
			},
		},
		{
			// Total outage for the entire measured phase: the cache is
			// warmed while the network is healthy, then every refresh
			// fails and every single request is a stale fallback.
			name: "total-outage-stale-fallback",
			fault: FaultConfig{
				Outages: []FaultWindow{{Server: AllServers, From: 40, To: 1 << 20}},
				Retry:   RetryConfig{MaxAttempts: 1},
			},
			// Uniform access and a long healthy warmup so every object
			// is cached before the network dies; the outage starts at
			// the first measured tick.
			tweak: func(cfg *SimulationConfig) {
				cfg.Access = "uniform"
				cfg.Warmup = 40
			},
			want: faultCounters{FailedDownloads: 654, Retries: 0, StaleFallbacks: 800},
			check: func(t *testing.T, rep SimulationReport) {
				if rep.StaleFallbacks != rep.Requests {
					t.Errorf("total outage: %d stale fallbacks, want all %d requests", rep.StaleFallbacks, rep.Requests)
				}
				if rep.Downloads != 0 {
					t.Errorf("total outage: %d downloads succeeded", rep.Downloads)
				}
			},
		},
		{
			// Seeded per-request failures: every fetch fails with
			// probability 0.2 on an independent, replayable stream, and
			// the retry loop absorbs most of them.
			name: "random-failures",
			fault: FaultConfig{
				FailureProb: 0.2,
				Retry:       RetryConfig{MaxAttempts: 3, BaseBackoff: 0.5},
			},
			want: faultCounters{FailedDownloads: 4, Retries: 102, StaleFallbacks: 8},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := base
			fault := sc.fault
			cfg.Fault = &fault
			if sc.tweak != nil {
				sc.tweak(&cfg)
			}
			rep, err := RunSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := faultCounters{rep.FailedDownloads, rep.Retries, rep.StaleFallbacks}
			if got != sc.want {
				t.Errorf("counters %+v, want %+v", got, sc.want)
			}
			if rep.Requests != uint64(base.RequestsPerTick*base.Ticks) {
				t.Errorf("requests %d, want %d", rep.Requests, base.RequestsPerTick*base.Ticks)
			}
			if rep.MeanScore <= 0 || rep.MeanScore > 1 {
				t.Errorf("mean score %v out of range", rep.MeanScore)
			}
			if sc.check != nil {
				sc.check(t, rep)
			}
			// The whole point: an identical rerun reproduces the report
			// bit for bit, floats included.
			again, err := RunSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again != rep {
				t.Errorf("rerun diverged:\n first %+v\nsecond %+v", rep, again)
			}
		})
	}
}

// TestMeanFetchLatencyMeasuredFetchesOnly pins the one definition of
// MeanFetchLatency for both engines: total fetch time over the measured
// ticks' downloads plus failed downloads. A spike confined to warmup
// must not leak into the measured mean, and a cell whose every download
// failed still reports what those failures cost.
func TestMeanFetchLatencyMeasuredFetchesOnly(t *testing.T) {
	base := SimulationConfig{
		Objects:         50,
		UpdatePeriod:    1,
		RequestsPerTick: 20,
		Access:          "zipf",
		Warmup:          20,
		Ticks:           40,
		Seed:            12345,
	}
	spiked := base
	spiked.Policy = "on-demand-stale"
	spiked.Fault = &FaultConfig{
		BaseLatency: 1,
		Spikes:      []FaultSpike{{FaultWindow: FaultWindow{Server: AllServers, From: 0, To: 20}, Factor: 8}},
	}
	rep, err := RunSimulation(spiked)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downloads == 0 || rep.MeanFetchLatency != 1 {
		t.Errorf("warmup-only spike: mean fetch latency %v over %d downloads, want 1", rep.MeanFetchLatency, rep.Downloads)
	}

	// Every fetch is refused; each download costs two attempts of 1.
	outage := &FaultConfig{
		BaseLatency: 1,
		Outages:     []FaultWindow{{Server: AllServers, From: 0, To: 1 << 20}},
		Retry:       RetryConfig{MaxAttempts: 2},
	}
	for _, strat := range []string{"on-demand", "push-ts", "push-at"} {
		cfg := base
		cfg.Fault = outage
		cfg.Dissemination = &DisseminationConfig{Strategy: strat}
		rep, err := RunSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Downloads != 0 || rep.FailedDownloads == 0 || rep.MeanFetchLatency != 2 {
			t.Errorf("%s total outage: %d downloads, %d failed, mean fetch latency %v; want 0, >0, 2",
				strat, rep.Downloads, rep.FailedDownloads, rep.MeanFetchLatency)
		}
	}
}

// TestZeroFaultScheduleMatchesIdealPath locks that installing the fault
// layer with an empty schedule changes nothing: the report (scores,
// recencies, downloads, every float) is identical to a run with no fault
// layer at all. This is what keeps Figures 2-6 byte-identical while the
// fault machinery is merged.
func TestZeroFaultScheduleMatchesIdealPath(t *testing.T) {
	base := SimulationConfig{
		Objects:         80,
		UpdatePeriod:    3,
		Policy:          "on-demand-knapsack",
		BudgetPerTick:   12,
		RequestsPerTick: 30,
		Access:          "zipf",
		Warmup:          20,
		Ticks:           100,
		Seed:            7,
	}
	ideal, err := RunSimulation(base)
	if err != nil {
		t.Fatal(err)
	}
	withLayer := base
	withLayer.Fault = &FaultConfig{Retry: RetryConfig{MaxAttempts: 3, BaseBackoff: 0.5, Timeout: 50}}
	faulted, err := RunSimulation(withLayer)
	if err != nil {
		t.Fatal(err)
	}
	if ideal != faulted {
		t.Fatalf("zero-fault schedule diverged from the ideal path:\nideal   %+v\nfaulted %+v", ideal, faulted)
	}
}

// TestKnapsackDominatesBaselinesUnderSkew pins the paper's headline
// comparative claim end-to-end: with a tight budget, skewed demand, and
// frequent updates, the knapsack policy delivers a mean client score at
// least as good as every baseline, and strictly better than blind async
// refresh.
func TestKnapsackDominatesBaselinesUnderSkew(t *testing.T) {
	base := SimulationConfig{
		Objects:         200,
		UpdatePeriod:    2,
		BudgetPerTick:   10,
		RequestsPerTick: 60,
		Access:          "zipf",
		Warmup:          50,
		Ticks:           200,
		Seed:            77,
	}
	score := func(policy string) float64 {
		cfg := base
		cfg.Policy = policy
		rep, err := RunSimulation(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return rep.MeanScore
	}
	knap := score("on-demand-knapsack")
	for _, pol := range []string{"on-demand-stale", "on-demand-lowest-recency", "async-freshness", "async-round-robin"} {
		if s := score(pol); knap < s-1e-9 {
			t.Fatalf("knapsack score %v below %s score %v", knap, pol, s)
		}
	}
	if async := score("async-round-robin"); knap <= async {
		t.Fatalf("knapsack %v not strictly above async round-robin %v", knap, async)
	}
}
