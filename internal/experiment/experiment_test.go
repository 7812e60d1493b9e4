package experiment

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mobicache/internal/metrics"
)

// smallFigure2 is a scaled-down Figure 2 configuration for fast tests;
// the full-size run is exercised by the benchmark harness.
func smallFigure2() Figure2Config {
	return Figure2Config{
		Objects:      100,
		UpdatePeriod: 5,
		Warmup:       20,
		Measure:      100,
		Rates:        []int{0, 10, 40, 100},
		Seed:         1,
	}
}

func TestFigure2Shape(t *testing.T) {
	fig, err := Figure2(smallFigure2())
	if err != nil {
		t.Fatal(err)
	}
	async := fig.Lookup("asynchronous")
	uniform := fig.Lookup("on-demand uniform")
	linear := fig.Lookup("on-demand skewed(uniform)")
	zipf := fig.Lookup("on-demand skewed(zipf)")
	if async == nil || uniform == nil || linear == nil || zipf == nil {
		t.Fatalf("missing series in %v", fig.Series)
	}
	// Async bound: 100 objects x (100/5) updates = 2000, independent of rate.
	for i := range async.Y {
		if async.Y[i] != 2000 {
			t.Fatalf("async downloads = %v, want constant 2000", async.Y[i])
		}
	}
	for _, s := range []*metrics.Series{uniform, linear, zipf} {
		// At rate 0 nothing is requested, so on-demand downloads nothing.
		if s.Y[0] != 0 {
			t.Fatalf("%s at rate 0 downloaded %v objects", s.Name, s.Y[0])
		}
		for i := range s.Y {
			if s.Y[i] > 2000 {
				t.Fatalf("%s exceeded the asynchronous bound: %v", s.Name, s.Y[i])
			}
			if i > 0 && s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s downloads not non-decreasing in rate: %v", s.Name, s.Y)
			}
		}
	}
	// Higher skew → fewer downloads (paper: "for higher degrees of skew in
	// requests, the on-demand approach provides greater savings").
	last := len(uniform.Y) - 1
	if !(zipf.Y[last] < linear.Y[last] && linear.Y[last] < uniform.Y[last]) {
		t.Fatalf("skew ordering violated at top rate: zipf=%v linear=%v uniform=%v",
			zipf.Y[last], linear.Y[last], uniform.Y[last])
	}
	// At high rates under uniform access, on-demand approaches async.
	if uniform.Y[last] < 0.8*2000 {
		t.Fatalf("uniform on-demand at high rate = %v, expected near the async bound", uniform.Y[last])
	}
}

func TestFigure2Validation(t *testing.T) {
	bad := smallFigure2()
	bad.Objects = 0
	if _, err := Figure2(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDefaultFigure2(t *testing.T) {
	cfg := DefaultFigure2()
	if cfg.Objects != 500 || cfg.UpdatePeriod != 5 || cfg.Warmup != 100 || cfg.Measure != 500 {
		t.Fatalf("default figure 2 config = %+v", cfg)
	}
	if len(cfg.Rates) != 21 || cfg.Rates[0] != 0 || cfg.Rates[20] != 500 {
		t.Fatalf("default rates = %v", cfg.Rates)
	}
}

func smallFigure3() Figure3Config {
	return Figure3Config{
		Objects:     100,
		RatePerTick: 50,
		Ks:          []int{1, 10, 25, 50},
		Warmup:      20,
		Measure:     50,
		LowPeriod:   10,
		HighPeriod:  1,
		Seed:        2,
	}
}

func TestFigure3Shape(t *testing.T) {
	figs, err := Figure3(smallFigure3())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("panels = %d, want 2", len(figs))
	}
	for p, fig := range figs {
		od := fig.Lookup("on-demand")
		as := fig.Lookup("asynchronous")
		if od == nil || as == nil {
			t.Fatalf("panel %d missing series", p)
		}
		for i := range od.Y {
			if od.Y[i] <= 0 || od.Y[i] > 1 || as.Y[i] <= 0 || as.Y[i] > 1 {
				t.Fatalf("panel %d recency out of (0,1]: od=%v as=%v", p, od.Y[i], as.Y[i])
			}
		}
		// On-demand recency rises with budget toward 1.
		lastOD := od.Y[len(od.Y)-1]
		if lastOD < od.Y[0] {
			t.Fatalf("panel %d on-demand recency fell with budget: %v", p, od.Y)
		}
	}
	// High update frequency: on-demand clearly beats async (paper: "when
	// objects are updated with high frequency, the asynchronous approach
	// performs poorly").
	high := figs[1]
	od, as := high.Lookup("on-demand"), high.Lookup("asynchronous")
	for i := range od.Y {
		if od.Y[i] < as.Y[i] {
			t.Fatalf("high-frequency panel: on-demand %v below async %v at k=%v",
				od.Y[i], as.Y[i], od.X[i])
		}
	}
	// With k = request rate, on-demand can refresh every requested object:
	// recency approaches 1.
	if last := od.Y[len(od.Y)-1]; last < 0.95 {
		t.Fatalf("on-demand recency at k=rate = %v, want ~1", last)
	}
}

func TestFigure3Validation(t *testing.T) {
	bad := smallFigure3()
	bad.Measure = 0
	if _, err := Figure3(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDefaultFigure3(t *testing.T) {
	cfg := DefaultFigure3()
	if cfg.Objects != 500 || cfg.RatePerTick != 100 || cfg.LowPeriod != 10 || cfg.HighPeriod != 1 {
		t.Fatalf("default figure 3 config = %+v", cfg)
	}
	if cfg.Ks[0] != 1 || cfg.Ks[len(cfg.Ks)-1] != 100 {
		t.Fatalf("default ks = %v", cfg.Ks)
	}
}

func TestFigure4Shape(t *testing.T) {
	fig, err := Figure4(DefaultSolutionSpace())
	if err != nil {
		t.Fatal(err)
	}
	pos := fig.Lookup("large objs high scores")
	neg := fig.Lookup("large objs low scores")
	none := fig.Lookup("no correlation")
	if pos == nil || neg == nil || none == nil {
		t.Fatal("missing series")
	}
	for _, s := range fig.Series {
		assertMonotoneTo1(t, s)
	}
	// Positive correlation (large objects fresh) rises rapidly: at a small
	// budget it clearly leads; the uncorrelated case lies between.
	const probe = 1500.0
	pv, nv, uv := pos.YAt(probe), neg.YAt(probe), none.YAt(probe)
	if !(pv > uv && uv > nv) {
		t.Fatalf("ordering at budget %v: pos=%v none=%v neg=%v", probe, pv, uv, nv)
	}
}

func TestFigure5Convergence(t *testing.T) {
	figs, err := Figure5(DefaultSolutionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("panels = %d", len(figs))
	}
	for _, fig := range figs {
		if len(fig.Series) != 3 {
			t.Fatalf("%s has %d series", fig.Title, len(fig.Series))
		}
		for _, s := range fig.Series {
			assertMonotoneTo1(t, s)
		}
	}
	smallHot := ConvergenceAll(figs[0], 0.9)
	largeHot := ConvergenceAll(figs[1], 0.9)
	if smallHot < 0 || largeHot < 0 {
		t.Fatalf("curves never converge: %v %v", smallHot, largeHot)
	}
	// Paper: small objects hot converges around 2000 units, large objects
	// hot only around 3500 — a clear separation.
	if smallHot >= largeHot {
		t.Fatalf("small-hot convergence %v not below large-hot %v", smallHot, largeHot)
	}
}

func TestFigure6Convergence(t *testing.T) {
	figs, err := Figure6(DefaultSolutionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("panels = %d", len(figs))
	}
	for _, fig := range figs {
		for _, s := range fig.Series {
			assertMonotoneTo1(t, s)
		}
	}
	smallFresh := ConvergenceAll(figs[0], 0.9)
	largeFresh := ConvergenceAll(figs[1], 0.9)
	if smallFresh < 0 || largeFresh < 0 {
		t.Fatalf("curves never converge: %v %v", smallFresh, largeFresh)
	}
	// Paper: when small objects are freshest (large objects must be
	// fetched), convergence needs far more data (~4000) than when large
	// objects are freshest (~2000).
	if largeFresh >= smallFresh {
		t.Fatalf("large-fresh convergence %v not below small-fresh %v", largeFresh, smallFresh)
	}
	// Panel legends.
	for _, name := range []string{"large objects hot", "small objects hot", "uniform access"} {
		if figs[0].Lookup(name) == nil {
			t.Fatalf("figure 6 missing series %q", name)
		}
	}
}

func assertMonotoneTo1(t *testing.T, s *metrics.Series) {
	t.Helper()
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1]-1e-9 {
			t.Fatalf("%s not monotone at %v: %v < %v", s.Name, s.X[i], s.Y[i], s.Y[i-1])
		}
	}
	if last := s.Y[len(s.Y)-1]; last < 0.999 {
		t.Fatalf("%s does not reach 1.0 at full budget: %v", s.Name, last)
	}
	if s.Y[0] >= 1 {
		t.Fatalf("%s already at 1.0 with zero budget", s.Name)
	}
}

func TestConvergenceHelpers(t *testing.T) {
	fig := metrics.NewFigure("t", "x", "y")
	a := fig.AddSeries("a")
	a.Add(0, 0.5)
	a.Add(10, 0.95)
	b := fig.AddSeries("b")
	b.Add(0, 0.2)
	b.Add(10, 0.5)
	m := Convergence(fig, 0.9)
	if m["a"] != 10 || m["b"] != -1 {
		t.Fatalf("Convergence = %v", m)
	}
	if got := ConvergenceAll(fig, 0.9); got != -1 {
		t.Fatalf("ConvergenceAll = %v, want -1", got)
	}
	b.Y[1] = 0.93
	if got := ConvergenceAll(fig, 0.9); got != 10 {
		t.Fatalf("ConvergenceAll = %v, want 10", got)
	}
}

func TestTable1Content(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Object_Size", "Num_Requests", "Cache_Recency_Score", "[1-20]", "[0.1-1.0]", "5000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestReplacementStudy(t *testing.T) {
	cfg := DefaultReplacement()
	cfg.Objects = 60
	cfg.RatePerTick = 30
	cfg.Warmup = 20
	cfg.Measure = 40
	cfg.Fractions = []float64{0.1, 0.5}
	cfg.BudgetPerTick = 40
	fig, err := Replacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5 policies", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Len() != 2 {
			t.Fatalf("%s has %d points", s.Name, s.Len())
		}
		for _, y := range s.Y {
			if y <= 0 || y > 1 {
				t.Fatalf("%s score %v out of (0,1]", s.Name, y)
			}
		}
		// A bigger cache should not make things much worse.
		if s.Y[1] < s.Y[0]-0.05 {
			t.Fatalf("%s: larger cache markedly worse: %v", s.Name, s.Y)
		}
	}
	bad := cfg
	bad.Objects = 0
	if _, err := Replacement(bad); err == nil {
		t.Fatal("invalid replacement config accepted")
	}
}

func TestSolverAblation(t *testing.T) {
	rows, err := SolverAblation(1, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Solver != "dp" || rows[0].OptFraction != 1 {
		t.Fatalf("dp row = %+v", rows[0])
	}
	for _, r := range rows {
		if r.OptFraction < 0.5 || r.OptFraction > 1.0001 {
			t.Fatalf("%s fraction = %v", r.Solver, r.OptFraction)
		}
	}
	// Each solver must meet its guarantee.
	for _, r := range rows {
		if r.Solver == "branch-and-bound" && r.OptFraction < 0.999999 {
			t.Fatalf("branch-and-bound fraction = %v (must be exact)", r.OptFraction)
		}
		if (r.Solver == "incremental(cold)" || r.Solver == "incremental(warm)") && r.OptFraction != 1 {
			t.Fatalf("%s fraction = %v (must be exact)", r.Solver, r.OptFraction)
		}
		if r.Solver == "certified(0.05)" && r.OptFraction < 0.95 {
			t.Fatalf("certified(0.05) fraction = %v (below its certificate)", r.OptFraction)
		}
	}
	out := RenderSolverAblation(rows)
	if !strings.Contains(out, "dp") || !strings.Contains(out, "fraction-of-optimal") {
		t.Fatalf("rendered ablation missing columns:\n%s", out)
	}
}

// TestFullSystemStudySmall pins study E4 (Figure 1's latency and
// utilization trade-off): the quick and the default configuration are
// each deterministic and show the claim's direction, the default's
// series are pinned exactly, and non-positive bandwidths are refused.
func TestFullSystemStudySmall(t *testing.T) {
	small := DefaultFullSystemStudy()
	small.Objects, small.RatePerTick, small.Ticks = 50, 10, 60
	small.Budgets = []int64{2, 20}
	checkFullSystemStudy(t, small)

	latFig, utilFig := checkFullSystemStudy(t, DefaultFullSystemStudy())
	want := map[string][]float64{
		"mean latency":           {0.4362055555556139, 0.4355377777778353, 0.8253033333334473, 1.4177933333335457, 1.4177933333335457},
		"mean client score":      {0.6763591691097579, 0.8132749206349211, 0.9800666666666665, 1, 1},
		"fixed-link utilization": {0.263, 0.5066666666666667, 0.8086913086913095, 0.8678250249805715, 0.8678250249805715},
		"downlink utilization":   {0.8125555555558427, 0.7735555555558116, 0.7463092463094817, 0.7449761296771521, 0.7449761296771521},
	}
	for _, s := range append(latFig.Series, utilFig.Series...) {
		if !slices.Equal(s.Y, want[s.Name]) {
			t.Errorf("%s drifted:\n got %v\nwant %v", s.Name, s.Y, want[s.Name])
		}
		delete(want, s.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing series: %v", want)
	}

	for _, bw := range []float64{0, -1} {
		cfg := small
		cfg.FixedBandwidth = bw
		if _, _, err := FullSystemStudy(cfg); err == nil {
			t.Errorf("fixed bandwidth %v accepted", bw)
		}
		cfg = small
		cfg.DownlinkBandwidth = bw
		if _, _, err := FullSystemStudy(cfg); err == nil {
			t.Errorf("downlink bandwidth %v accepted", bw)
		}
	}
}

// checkFullSystemStudy runs E4 twice on cfg, requires identical figures,
// and checks the direction of the paper's §1 argument across the budget
// sweep: a larger budget never lowers the score or the fixed-link load,
// the largest budget waits longer than the smallest and leaves more of
// the downlink idle, and every utilization is a fraction.
func checkFullSystemStudy(t *testing.T, cfg FullSystemStudyConfig) (latFig, utilFig *metrics.Figure) {
	t.Helper()
	latFig, utilFig, err := FullSystemStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	latAgain, utilAgain, err := FullSystemStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(latFig, latAgain) || !reflect.DeepEqual(utilFig, utilAgain) {
		t.Fatalf("budgets %v: two runs of one config differ:\n%s%s\nvs\n%s%s",
			cfg.Budgets, latFig.Table(), utilFig.Table(), latAgain.Table(), utilAgain.Table())
	}
	lat := latFig.Lookup("mean latency")
	score := utilFig.Lookup("mean client score")
	linkU := utilFig.Lookup("fixed-link utilization")
	downU := utilFig.Lookup("downlink utilization")
	if lat == nil || score == nil || linkU == nil || downU == nil {
		t.Fatal("full-system figures miss a series")
	}
	n := lat.Len()
	if n < 2 {
		t.Fatalf("latency series has %d points", n)
	}
	for i := 1; i < n; i++ {
		if score.Y[i] < score.Y[i-1] || linkU.Y[i] < linkU.Y[i-1] {
			t.Errorf("budget %v: score %v or fixed-link utilization %v fell with budget",
				score.X[i], score.Y, linkU.Y)
		}
	}
	if lat.Y[n-1] <= lat.Y[0] {
		t.Errorf("latency did not rise with budget: %v", lat.Y)
	}
	if downU.Y[n-1] >= downU.Y[0] {
		t.Errorf("downlink utilization did not fall with budget: %v", downU.Y)
	}
	for _, s := range []*metrics.Series{linkU, downU} {
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Errorf("%s out of [0,1]: %v", s.Name, s.Y)
			}
		}
	}
	return latFig, utilFig
}
