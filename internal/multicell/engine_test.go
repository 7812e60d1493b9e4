package multicell

import (
	"fmt"
	"strings"
	"testing"

	"mobicache/internal/basestation"
	"mobicache/internal/cache"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/obs"
	"mobicache/internal/policy"
	"mobicache/internal/recency"
	"mobicache/internal/rng"
	"mobicache/internal/server"
)

// TestConfigRejections pins the up-front validation: every malformed field
// is rejected by New with a multicell-prefixed error naming the value,
// before any cell machinery is built.
func TestConfigRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"zero cells", func(c *Config) { c.Cells = 0 }, "cells 0"},
		{"negative cells", func(c *Config) { c.Cells = -3 }, "cells -3"},
		{"zero objects", func(c *Config) { c.Objects = 0 }, "objects 0"},
		{"zero clients", func(c *Config) { c.Clients = 0 }, "clients 0"},
		{"probability above one", func(c *Config) { c.RequestProb = 1.5 }, "request probability 1.5"},
		{"negative probability", func(c *Config) { c.RequestProb = -0.1 }, "request probability -0.1"},
		{"negative budget", func(c *Config) { c.BudgetPerTick = -10 }, "download budget -10"},
		{"negative update period", func(c *Config) { c.UpdatePeriod = -5 }, "update period -5"},
		{"fractional residence", func(c *Config) { c.Mobility.MeanResidence = 0.5 }, "mean residence 0.5"},
		{"disconnect probability above one", func(c *Config) { c.Mobility.PDisconnect = 1.5 }, "disconnect probability 1.5"},
		{"fractional absence", func(c *Config) { c.Mobility.MeanAbsence = 0.25 }, "mean absence 0.25"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mutate(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			if !strings.HasPrefix(err.Error(), "multicell: ") {
				t.Fatalf("error %q lacks multicell prefix", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestTickSteadyStateAllocs pins the scratch-buffer hoisting: once every
// cell's cache holds the whole catalog and the per-tick slices have grown
// to their working size, a tick allocates nothing.
func TestTickSteadyStateAllocs(t *testing.T) {
	cfg := Config{
		Cells:       3,
		Objects:     40,
		Clients:     120,
		Mobility:    client.Mobility{MeanResidence: 20, PDisconnect: 0.2, MeanAbsence: 10},
		RequestProb: 0.8,
		Pattern:     rng.Zipf,
		Seed:        3,
	}
	for _, sharing := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharing=%v", sharing), func(t *testing.T) {
			cfg := cfg
			cfg.CacheSharing = sharing
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm until every cell has cached the full catalog, so
			// steady-state ticks only refresh existing entries.
			if _, err := sys.Run(400); err != nil {
				t.Fatal(err)
			}
			tick := 400
			allocs := testing.AllocsPerRun(200, func() {
				if err := sys.tick(tick); err != nil {
					t.Fatal(err)
				}
				tick++
			})
			if allocs != 0 {
				t.Fatalf("steady-state tick allocates %v objects/op, want 0", allocs)
			}
		})
	}
}

// TestHandoffDropDeltas pins the per-tick delta bookkeeping: the engine
// records handoffs and drops as deltas against the previous tick, and the
// summed deltas must reproduce the population's absolute counters exactly.
func TestHandoffDropDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewMulticellMetrics(reg, 0)
	cfg := baseConfig()
	cfg.Mobility = client.Mobility{MeanResidence: 5, PDisconnect: 0.4, MeanAbsence: 4}
	cfg.Metrics = m
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(250)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handoffs == 0 || rep.Drops == 0 {
		t.Fatalf("mobility too tame for the test: %+v", rep)
	}
	if got := m.Handoffs.Value(); got != sys.pop.Handoffs() {
		t.Fatalf("summed handoff deltas = %d, population counter = %d", got, sys.pop.Handoffs())
	}
	if got := m.Drops.Value(); got != sys.pop.Drops() {
		t.Fatalf("summed drop deltas = %d, population counter = %d", got, sys.pop.Drops())
	}
	if rep.Handoffs != sys.pop.Handoffs() || rep.Drops != sys.pop.Drops() {
		t.Fatalf("report disagrees with population: %+v", rep)
	}
}

// TestPerCellShardAttribution pins the metrics sharding: each cell writes
// its own {cell="N"} series, the aggregate absorbs exactly the shard sums,
// and mobicache_ticks_total counts engine ticks — not cell-ticks.
func TestPerCellShardAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewMulticellMetrics(reg, 0)
	cfg := baseConfig()
	cfg.Metrics = m
	cfg.CacheSharing = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 150
	rep, err := sys.Run(ticks)
	if err != nil {
		t.Fatal(err)
	}

	if got := m.Station.Ticks.Value(); got != ticks {
		t.Fatalf("aggregate ticks = %d, want %d engine ticks (cell-tick aliasing bug?)", got, ticks)
	}
	var shardReqs, shardDownloads uint64
	for c := 0; c < cfg.Cells; c++ {
		shard := m.CellShard(c)
		if got := shard.Ticks.Value(); got != ticks {
			t.Fatalf("cell %d shard ticks = %d, want %d", c, got, ticks)
		}
		if got := shard.Requests.Value(); got != rep.PerCellRequests[c] {
			t.Fatalf("cell %d shard requests = %d, report says %d", c, got, rep.PerCellRequests[c])
		}
		shardReqs += shard.Requests.Value()
		shardDownloads += shard.PolicyDownloads.Value() + shard.MissDownloads.Value()
	}
	if shardReqs != rep.Requests {
		t.Fatalf("shard request sum = %d, report total = %d", shardReqs, rep.Requests)
	}
	if got := m.Station.Requests.Value(); got != rep.Requests {
		t.Fatalf("aggregate requests = %d, report total = %d", got, rep.Requests)
	}
	if shardDownloads != rep.Downloads {
		t.Fatalf("shard download sum = %d, report total = %d", shardDownloads, rep.Downloads)
	}
	if got := m.SharedCopies.Value(); got != rep.SharedCopies {
		t.Fatalf("shared-copy counter = %d, report says %d", got, rep.SharedCopies)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mobicache_ticks_total{cell="0"}`,
		fmt.Sprintf(`mobicache_ticks_total{cell="%d"}`, cfg.Cells-1),
		"mobicache_shared_copy_failures_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics output lacks %q", want)
		}
	}
}

// TestSharedCopyFailureCounted pins satellite semantics: a cooperative
// copy the local cache rejects is counted in the report and the obs
// counter instead of being silently discarded.
func TestSharedCopyFailureCounted(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewMulticellMetrics(reg, 0)
	cfg := baseConfig()
	cfg.Cells = 2
	cfg.CacheSharing = true
	cfg.Metrics = m
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap cell 0's station for one whose bounded cache cannot hold an
	// oversized entry, then hand applyShared a gathered copy that must be
	// rejected (ErrTooLarge) and one that must land.
	sel, err := core.NewSelector(sys.cat, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewOnDemandKnapsack(sel)
	if err != nil {
		t.Fatal(err)
	}
	st, err := basestation.New(basestation.Config{
		Catalog: sys.cat,
		Server:  server.New(sys.cat, nil),
		Policy:  pol,
		Cache:   cache.MustNew(1, recency.DefaultDecay, cache.NewLRU()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.stations[0] = st
	sys.pending = append(sys.pending,
		shareOp{cell: 0, src: &cache.Entry{ID: 0, Size: 2, Recency: 1}},
		shareOp{cell: 0, src: &cache.Entry{ID: 1, Size: 1, Recency: 1}},
	)
	sys.applyShared(0)
	if sys.sharedFailures != 1 {
		t.Fatalf("shared failures = %d, want 1", sys.sharedFailures)
	}
	if sys.shared != 1 {
		t.Fatalf("shared copies = %d, want 1", sys.shared)
	}
	if got := m.SharedCopyFailures.Value(); got != 1 {
		t.Fatalf("failure counter = %d, want 1", got)
	}
	if got := m.SharedCopies.Value(); got != 1 {
		t.Fatalf("copy counter = %d, want 1", got)
	}
	rep, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedCopyFailures != 1 || rep.SharedCopies != 1 {
		t.Fatalf("report = %+v, want 1 failure and 1 copy", rep)
	}
}

// TestRepeatedRunsContinue ensures the scratch buffers survive Run
// boundaries: a second Run on the same system works and reports only its
// own ticks.
func TestRepeatedRunsContinue(t *testing.T) {
	sys, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ticks != 50 {
		t.Fatalf("second run ticks = %d", rep.Ticks)
	}
	if rep.Requests == 0 {
		t.Fatal("second run saw no requests")
	}
}
