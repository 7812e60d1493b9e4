package experiment

import (
	"strings"
	"testing"
)

func TestBroadcastStudyShape(t *testing.T) {
	cfg := DefaultBroadcastStudy()
	cfg.Draws = 20000
	fig, err := BroadcastStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := fig.Lookup("flat broadcast")
	multi := fig.Lookup("multi-disk broadcast")
	hybrid := fig.Lookup("hybrid push/pull")
	if flat == nil || multi == nil || hybrid == nil {
		t.Fatal("missing series")
	}
	// Flat broadcast wait is skew-independent: (N-1)/2.
	for i := range flat.Y {
		want := float64(cfg.Objects-1) / 2
		if flat.Y[i] < want-1e-9 || flat.Y[i] > want+1e-9 {
			t.Fatalf("flat wait = %v, want %v", flat.Y[i], want)
		}
	}
	// Multi-disk improves with skew and beats flat at zipf 1+.
	last := len(multi.Y) - 1
	if multi.Y[last] >= flat.Y[last] {
		t.Fatalf("multi-disk %v not below flat %v at max skew", multi.Y[last], flat.Y[last])
	}
	if multi.Y[last] >= multi.Y[0] {
		t.Fatalf("multi-disk wait did not improve with skew: %v", multi.Y)
	}
	// Hybrid with a backchannel beats pure multi-disk push at every skew
	// (pull slots bound the worst-case wait).
	for i := range hybrid.Y {
		if hybrid.Y[i] >= flat.Y[i] {
			t.Fatalf("hybrid wait %v not below flat %v at skew %v", hybrid.Y[i], flat.Y[i], hybrid.X[i])
		}
	}
}

func TestBroadcastStudyValidation(t *testing.T) {
	cfg := DefaultBroadcastStudy()
	cfg.Objects = 30 // not divisible by 8
	if _, err := BroadcastStudy(cfg); err == nil {
		t.Fatal("bad object count accepted")
	}
}

func TestSleeperStudyShape(t *testing.T) {
	cfg := DefaultSleeperStudy()
	cfg.Ticks = 6000
	cfg.SleepProbs = []float64{0, 0.4, 0.8}
	fig, err := SleeperStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := fig.Lookup("ts")
	at := fig.Lookup("at")
	if ts == nil || at == nil {
		t.Fatal("missing series")
	}
	// With no sleeping the strategies are equivalent-ish; once terminals
	// sleep, TS (windowed reports) must beat AT (purge on any miss).
	for i := 1; i < len(ts.Y); i++ {
		if ts.Y[i] <= at.Y[i] {
			t.Fatalf("TS hit ratio %v not above AT %v at sleep prob %v",
				ts.Y[i], at.Y[i], ts.X[i])
		}
	}
	// AT hit ratio decays sharply with sleep probability.
	if at.Y[len(at.Y)-1] >= at.Y[0] {
		t.Fatalf("AT did not degrade with sleeping: %v", at.Y)
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("hit ratio %v out of range", y)
			}
		}
	}
}

func TestSleeperStudyValidation(t *testing.T) {
	cfg := DefaultSleeperStudy()
	cfg.Ticks = 0
	if _, err := SleeperStudy(cfg); err == nil {
		t.Fatal("zero ticks accepted")
	}
}

func TestAdaptiveStudyFrontier(t *testing.T) {
	cfg := DefaultAdaptiveStudy()
	cfg.Objects = 120
	cfg.RatePerTick = 30
	cfg.Warmup = 30
	cfg.Measure = 80
	cfg.FixedBudgets = []int64{5, 20, 60}
	fig, err := AdaptiveStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixed := fig.Lookup("fixed budgets")
	adaptive := fig.Lookup("adaptive")
	if fixed == nil || adaptive == nil || adaptive.Len() != 1 {
		t.Fatal("series malformed")
	}
	// Fixed frontier: score rises with bandwidth.
	for i := 1; i < fixed.Len(); i++ {
		if fixed.Y[i] < fixed.Y[i-1]-0.02 {
			t.Fatalf("fixed frontier not rising: %v", fixed.Y)
		}
	}
	// The adaptive point achieves a high score with bounded bandwidth:
	// at least the 90%-of-max rule's promise relative to the best fixed
	// score, using no more bandwidth than the largest fixed budget.
	bestFixed := fixed.Y[fixed.Len()-1]
	if adaptive.Y[0] < 0.85*bestFixed {
		t.Fatalf("adaptive score %v too far below best fixed %v", adaptive.Y[0], bestFixed)
	}
	if adaptive.X[0] > fixed.X[fixed.Len()-1]*1.5 {
		t.Fatalf("adaptive bandwidth %v far above the fixed sweep max %v", adaptive.X[0], fixed.X[fixed.Len()-1])
	}
}

func TestAdaptiveStudyValidation(t *testing.T) {
	cfg := DefaultAdaptiveStudy()
	cfg.Measure = 0
	if _, err := AdaptiveStudy(cfg); err == nil {
		t.Fatal("zero measure accepted")
	}
}

func TestMulticellStudy(t *testing.T) {
	out, err := MulticellStudy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"isolated", "cooperative", "shared copies", "mean score"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multicell study output missing %q:\n%s", want, out)
		}
	}
	// A second run must render the same numbers.
	again, err := MulticellStudy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatalf("second study run differs:\n%s\nvs\n%s", again, out)
	}
	if _, err := MulticellStudy(0, 1); err == nil {
		t.Fatal("zero cells accepted")
	}
}
