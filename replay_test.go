package mobicache

import (
	"bytes"
	"strings"
	"testing"

	"mobicache/internal/basestation"
	"mobicache/internal/dissemination"
	"mobicache/internal/workload"
)

// TestGenerateTraceAndReplayMatchesLive replays a configuration's own
// trace under every strategy, with and without fetch faults: the replay
// consumes the exact stream the live run generated, through the same
// cell, so every measured quantity matches.
func TestGenerateTraceAndReplayMatchesLive(t *testing.T) {
	base := SimulationConfig{
		Objects:         60,
		Policy:          "on-demand-stale",
		RequestsPerTick: 15,
		BudgetPerTick:   8,
		Access:          "zipf",
		Warmup:          10,
		Ticks:           40,
		Seed:            5,
	}
	eachStrategy(t, base, func(t *testing.T, cfg SimulationConfig) {
		reqs, err := GenerateTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != 15*(10+40) {
			t.Fatalf("trace has %d requests, want %d", len(reqs), 15*50)
		}
		live, err := RunSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := ReplayTrace(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if live != replayed {
			t.Fatalf("replay differs from live run:\nlive    %+v\nreplay  %+v", live, replayed)
		}
	})
}

func TestTraceRoundTripThroughWriter(t *testing.T) {
	cfg := SimulationConfig{
		Objects: 10, RequestsPerTick: 5, Ticks: 4, Seed: 9,
	}
	reqs, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip %d != %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("request %d changed: %+v vs %+v", i, got[i], reqs[i])
		}
	}
}

// TestReplayUsesTraceTickNumbers pins the tick alignment of ReplayTrace:
// a recorded trace whose first request falls on tick lo > 0 must be
// replayed at ticks lo, lo+1, ... — not re-based to 0, which would shift
// the server-update schedule and the warmup cutoff relative to the
// recording. The reference is the equivalent offset simulation: the same
// system driven by hand with every batch served at its true tick.
func TestReplayUsesTraceTickNumbers(t *testing.T) {
	cfg := SimulationConfig{
		Objects:         50,
		Policy:          "on-demand-stale",
		RequestsPerTick: 12,
		BudgetPerTick:   6,
		UpdatePeriod:    5,
		Access:          "zipf",
		Warmup:          6,
		Ticks:           30,
		Seed:            13,
	}
	full, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the earliest ticks so the recorded workload starts at tick
	// 3 > 0 — off the update period on purpose.
	var late []Request
	for _, r := range full {
		if r.Tick >= 3 {
			late = append(late, r)
		}
	}
	lo, _ := workload.TickBounds(late)
	if lo != 3 {
		t.Fatalf("stripped trace starts at tick %d, want 3", lo)
	}

	c, err := buildCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.eng.(*basestation.Station)
	var totals basestation.Totals
	for i, batch := range workload.SplitByTick(late) {
		tick := lo + i
		res, err := st.RunTick(tick, batch)
		if err != nil {
			t.Fatal(err)
		}
		if tick >= cfg.Warmup {
			totals.Add(res)
		}
	}
	want := c.report(totals, dissemination.Stats{})

	got, err := ReplayTrace(cfg, late)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replay re-based the trace's ticks:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestTraceRoundTripPropertyAcrossConfigs checks the full interchange
// loop GenerateTrace → WriteTrace → ReadTrace → ReplayTrace against the
// live simulation across seeds and popularity skews: the replay of the
// serialized stream must reproduce every measured quantity exactly.
func TestTraceRoundTripPropertyAcrossConfigs(t *testing.T) {
	for _, access := range []string{"uniform", "linear", "zipf"} {
		for _, seed := range []uint64{1, 42, 9001} {
			cfg := SimulationConfig{
				Objects:         40,
				Policy:          "on-demand-knapsack",
				RequestsPerTick: 10,
				BudgetPerTick:   5,
				Access:          access,
				Warmup:          5,
				Ticks:           25,
				Seed:            seed,
			}
			reqs, err := GenerateTrace(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteTrace(&buf, reqs); err != nil {
				t.Fatal(err)
			}
			decoded, err := ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			live, err := RunSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := ReplayTrace(cfg, decoded)
			if err != nil {
				t.Fatal(err)
			}
			if live != replayed {
				t.Fatalf("%s/seed %d: replay of serialized trace differs:\nlive    %+v\nreplay  %+v",
					access, seed, live, replayed)
			}
		}
	}
}

func TestReplayTraceValidation(t *testing.T) {
	cfg := SimulationConfig{Objects: 5, Ticks: 10}
	if _, err := ReplayTrace(cfg, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	// Replay builds the same cell as a live run, conflict checks included.
	push := cfg
	push.RequestsPerTick = 3
	reqs, err := GenerateTrace(push)
	if err != nil {
		t.Fatal(err)
	}
	push.Policy = "on-demand-stale"
	push.Dissemination = &DisseminationConfig{Strategy: "broadcast-flat"}
	if _, err := ReplayTrace(push, reqs); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("policy x dissemination conflict not rejected on replay: %v", err)
	}
	if _, err := GenerateTrace(SimulationConfig{Objects: 5, Ticks: 0}); err == nil {
		t.Fatal("zero ticks accepted")
	}
	if _, err := GenerateTrace(SimulationConfig{Objects: 0, Ticks: 1}); err == nil {
		t.Fatal("no objects accepted")
	}
}

func TestHorizonValidatedBeforeBuilding(t *testing.T) {
	// A config that is broken in two ways — no objects AND an invalid
	// horizon — must fail on the horizon, not on a generator artifact,
	// and GenerateTrace and RunSimulation must report the same error.
	bad := SimulationConfig{Objects: 0, Warmup: -1, Ticks: 0}
	_, genErr := GenerateTrace(bad)
	_, runErr := RunSimulation(bad)
	if genErr == nil || runErr == nil {
		t.Fatalf("invalid horizon accepted: gen=%v run=%v", genErr, runErr)
	}
	if genErr.Error() != runErr.Error() {
		t.Fatalf("errors differ:\ngen %v\nrun %v", genErr, runErr)
	}
	if want := "warmup -1 / ticks 0 invalid"; !bytes.Contains([]byte(genErr.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention the horizon", genErr)
	}
}

func TestReplayDifferentPolicySameTrace(t *testing.T) {
	gen := SimulationConfig{
		Objects: 60, RequestsPerTick: 20, Access: "zipf", Ticks: 50, Seed: 11,
	}
	reqs, err := GenerateTrace(gen)
	if err != nil {
		t.Fatal(err)
	}
	knap := gen
	knap.Policy = "on-demand-knapsack"
	knap.BudgetPerTick = 5
	async := gen
	async.Policy = "async-round-robin"
	async.BudgetPerTick = 5
	a, err := ReplayTrace(knap, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayTrace(async, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests {
		t.Fatalf("same trace, different request counts: %d vs %d", a.Requests, b.Requests)
	}
	if a.MeanScore <= b.MeanScore {
		t.Fatalf("knapsack score %v not above async %v on the same trace", a.MeanScore, b.MeanScore)
	}
}
