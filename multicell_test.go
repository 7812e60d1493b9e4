package mobicache

import (
	"fmt"
	"testing"
)

func baseMulticell() MulticellConfig {
	return MulticellConfig{
		Cells:         3,
		Objects:       100,
		BudgetPerTick: 10,
		Clients:       90,
		MeanResidence: 20,
		PDisconnect:   0.2,
		MeanAbsence:   10,
		RequestProb:   0.3,
		Access:        "zipf",
		Ticks:         150,
		Seed:          1,
	}
}

func TestRunMulticellBasics(t *testing.T) {
	rep, err := RunMulticell(baseMulticell())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ticks != 150 {
		t.Fatalf("ticks = %d", rep.Ticks)
	}
	if rep.Requests == 0 || rep.Downloads == 0 {
		t.Fatalf("no activity: %+v", rep)
	}
	if rep.MeanScore <= 0 || rep.MeanScore > 1 {
		t.Fatalf("score = %v", rep.MeanScore)
	}
	if len(rep.PerCellScores) != 3 {
		t.Fatalf("per-cell scores = %v", rep.PerCellScores)
	}
	if rep.Handoffs == 0 {
		t.Fatal("no handoffs with fast mobility")
	}

	// The fault config reaches every cell's fetch path, latency model
	// included: a base latency above the fetch timeout fails every
	// download, exactly as it does in a single cell.
	slow := baseMulticell()
	slow.Fault = &FaultConfig{BaseLatency: 2, Retry: RetryConfig{MaxAttempts: 1, Timeout: 1}}
	rep, err = RunMulticell(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downloads != 0 || rep.FailedDownloads == 0 {
		t.Fatalf("fetch latency 2 over timeout 1: %d downloads succeeded, %d failed; want every one failed",
			rep.Downloads, rep.FailedDownloads)
	}
}

func TestRunMulticellSharing(t *testing.T) {
	cfg := baseMulticell()
	cfg.CacheSharing = true
	rep, err := RunMulticell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedCopies == 0 {
		t.Fatal("sharing enabled but no copies recorded")
	}
}

func TestRunMulticellDefaults(t *testing.T) {
	// Zeroed mobility fields fall back to defaults rather than erroring.
	cfg := baseMulticell()
	cfg.MeanResidence = 0
	cfg.MeanAbsence = 0
	cfg.PDisconnect = 0
	if _, err := RunMulticell(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunMulticellNeverDisconnect(t *testing.T) {
	// Setting ONLY PDisconnect used to be impossible: a zero value made
	// the whole Mobility struct zero, which means "use DefaultMobility"
	// (PDisconnect 0.2). The NeverDisconnect sentinel expresses the
	// explicit zero-probability profile while the other fields default.
	cfg := baseMulticell()
	cfg.MeanResidence = 0
	cfg.MeanAbsence = 0
	cfg.PDisconnect = NeverDisconnect
	rep, err := RunMulticell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops != 0 {
		t.Fatalf("NeverDisconnect produced %d drops", rep.Drops)
	}
	if rep.Handoffs == 0 {
		t.Fatal("no handoffs despite defaulted residence")
	}

	cfg.PDisconnect = 0 // all-zero mobility: the full default profile
	rep, err = RunMulticell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops == 0 {
		t.Fatal("zero-value mobility did not fall back to the default profile")
	}
}

func TestRunMulticellValidation(t *testing.T) {
	cfg := baseMulticell()
	cfg.Cells = 0
	if _, err := RunMulticell(cfg); err == nil {
		t.Fatal("zero cells accepted")
	}
	cfg = baseMulticell()
	cfg.Access = "bogus"
	if _, err := RunMulticell(cfg); err == nil {
		t.Fatal("bogus access accepted")
	}
	cfg = baseMulticell()
	cfg.Ticks = 0
	rep, err := RunMulticell(cfg)
	if err != nil {
		t.Fatal(err) // zero ticks is a no-op run
	}
	if rep.Requests != 0 {
		t.Fatalf("zero-tick run produced requests: %+v", rep)
	}
}

func TestRunMulticellDeterministic(t *testing.T) {
	run := func() MulticellReport {
		cfg := baseMulticell()
		cfg.CacheSharing = true
		rep, err := RunMulticell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if again := run(); fmt.Sprintf("%#v", rep) != fmt.Sprintf("%#v", again) {
		t.Fatalf("second run changed the report:\nfirst:  %+v\nsecond: %+v", rep, again)
	}
	if len(rep.PerCellRequests) != 3 || len(rep.PerCellDownloads) != 3 {
		t.Fatalf("per-cell breakdowns missing: %+v", rep)
	}
	var reqs uint64
	for _, r := range rep.PerCellRequests {
		reqs += r
	}
	if reqs != rep.Requests {
		t.Fatalf("per-cell requests sum %d != total %d", reqs, rep.Requests)
	}
}
