package runner

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRenders builds a render map returning fixed strings.
func fakeRenders(figs map[string]string) map[string]func() (string, error) {
	out := make(map[string]func() (string, error), len(figs))
	for name, content := range figs {
		content := content
		out[name] = func() (string, error) { return content, nil }
	}
	return out
}

func TestCheckGolden(t *testing.T) {
	dir := t.TempDir()
	figs := map[string]string{
		"figure2.csv": "budget,score\n1,0.5\n",
		"figure3.csv": "skew,hits\n0.8,12\n",
	}
	for name, content := range figs {
		if err := writeFile(t, filepath.Join(dir, name), content); err != nil {
			t.Fatal(err)
		}
	}

	if vs := CheckGolden(dir, fakeRenders(figs)); len(vs) != 0 {
		t.Fatalf("clean goldens flagged: %v", vs)
	}

	// Tamper one archived golden: the gate must name the figure and show
	// a readable diff locating the first divergent byte.
	if err := writeFile(t, filepath.Join(dir, "figure2.csv"), "budget,score\n1,0.9\n"); err != nil {
		t.Fatal(err)
	}
	vs := CheckGolden(dir, fakeRenders(figs))
	if len(vs) != 1 || vs[0].Name != "figure2.csv" {
		t.Fatalf("tampered golden: %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "first diff at byte") {
		t.Fatalf("diff not readable: %q", vs[0].Detail)
	}

	// A renderer error and a missing golden are both violations, sorted
	// by figure name.
	renders := fakeRenders(map[string]string{"figure9.csv": "x\n"})
	renders["figure0.csv"] = func() (string, error) { return "", errors.New("solver exploded") }
	vs = CheckGolden(dir, renders)
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %v", vs)
	}
	if vs[0].Name != "figure0.csv" || !strings.Contains(vs[0].Detail, "render failed") {
		t.Fatalf("render error: %+v", vs[0])
	}
	if vs[1].Name != "figure9.csv" || !strings.Contains(vs[1].Detail, "missing golden") {
		t.Fatalf("missing golden: %+v", vs[1])
	}
}

func TestCheckBench(t *testing.T) {
	base := []BenchResult{
		{Name: "BenchmarkSolverDP", NsPerOp: 2e6, AllocsPerOp: 0},
		{Name: "BenchmarkSimulationTick", NsPerOp: 2e4, AllocsPerOp: 2},
	}
	cases := []struct {
		name    string
		current []BenchResult
		want    int
		frag    string
	}{
		{"identical", base, 0, ""},
		{"within tolerance", []BenchResult{{Name: "BenchmarkSolverDP", NsPerOp: 2.3e6}}, 0, ""},
		{"beyond tolerance", []BenchResult{{Name: "BenchmarkSolverDP", NsPerOp: 2.6e6}}, 1, "+30.0%"},
		{"new allocation", []BenchResult{{Name: "BenchmarkSolverDP", NsPerOp: 2e6, AllocsPerOp: 1}}, 1, "allocs/op"},
		{"allocs within rounding", []BenchResult{{Name: "BenchmarkSimulationTick", NsPerOp: 2e4, AllocsPerOp: 2}}, 0, ""},
		// A sub-millisecond baseline sits below TimeGateFloorNs: its
		// wall-clock is noise on a shared machine and is not time-gated...
		{"sub-floor timing skipped", []BenchResult{{Name: "BenchmarkSimulationTick", NsPerOp: 9e4, AllocsPerOp: 2}}, 0, ""},
		// ...but its allocations still are.
		{"sub-floor allocs still gated", []BenchResult{{Name: "BenchmarkSimulationTick", NsPerOp: 2e4, AllocsPerOp: 7}}, 1, "allocs/op"},
		{"unknown benchmark skipped", []BenchResult{{Name: "BenchmarkBrandNew", NsPerOp: 1e9}}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckBench(tc.current, base, DefaultTolerance)
			if len(vs) != tc.want {
				t.Fatalf("violations = %v, want %d", vs, tc.want)
			}
			if tc.want > 0 && !strings.Contains(vs[0].Detail, tc.frag) {
				t.Fatalf("detail %q does not mention %q", vs[0].Detail, tc.frag)
			}
		})
	}
}

func TestCheckSummaries(t *testing.T) {
	base := []Summary{
		{ID: "dp_zipf_b8_c1_default_ideal_s1", Metrics: map[string]float64{"mean_score": 0.9, "shed_requests": 0}},
		{ID: "greedy_zipf_b8_c1_default_ideal_s1", Metrics: map[string]float64{"mean_score": 0.8}},
	}
	clone := func() []Summary {
		out := make([]Summary, len(base))
		for i, s := range base {
			m := make(map[string]float64, len(s.Metrics))
			for k, v := range s.Metrics {
				m[k] = v
			}
			out[i] = Summary{ID: s.ID, Metrics: m}
		}
		return out
	}

	if vs := CheckSummaries(clone(), base, DefaultTolerance); len(vs) != 0 {
		t.Fatalf("identical sweeps flagged: %v", vs)
	}

	t.Run("beyond tolerance", func(t *testing.T) {
		cur := clone()
		cur[0].Metrics["mean_score"] = 0.6 // -33% vs 0.9
		vs := CheckSummaries(cur, base, DefaultTolerance)
		if len(vs) != 1 || !strings.Contains(vs[0].Name, "mean_score") {
			t.Fatalf("violations = %v", vs)
		}
	})
	t.Run("within tolerance", func(t *testing.T) {
		cur := clone()
		cur[0].Metrics["mean_score"] = 0.8 // -11%
		if vs := CheckSummaries(cur, base, DefaultTolerance); len(vs) != 0 {
			t.Fatalf("violations = %v", vs)
		}
	})
	t.Run("zero baseline", func(t *testing.T) {
		cur := clone()
		cur[0].Metrics["shed_requests"] = 3
		vs := CheckSummaries(cur, base, DefaultTolerance)
		if len(vs) != 1 || !strings.Contains(vs[0].Name, "shed_requests") {
			t.Fatalf("violations = %v", vs)
		}
	})
	t.Run("metric missing", func(t *testing.T) {
		cur := clone()
		delete(cur[1].Metrics, "mean_score")
		vs := CheckSummaries(cur, base, DefaultTolerance)
		if len(vs) != 1 || !strings.Contains(vs[0].Detail, "missing") {
			t.Fatalf("violations = %v", vs)
		}
	})
	t.Run("baseline run missing", func(t *testing.T) {
		vs := CheckSummaries(clone()[:1], base, DefaultTolerance)
		if len(vs) != 1 || !strings.Contains(vs[0].Detail, "missing from current sweep") {
			t.Fatalf("violations = %v", vs)
		}
	})
	t.Run("extra current run fine", func(t *testing.T) {
		cur := append(clone(), Summary{ID: "certified_new", Metrics: map[string]float64{"x": 1}})
		if vs := CheckSummaries(cur, base, DefaultTolerance); len(vs) != 0 {
			t.Fatalf("violations = %v", vs)
		}
	})
}

// TestGateFailsOnInjectedGoldenRegression is the end-to-end failure
// demonstration: tamper with an archived golden, run the real renderers
// against it, and require a non-zero outcome with a readable diff.
func TestGateFailsOnInjectedGoldenRegression(t *testing.T) {
	dir := t.TempDir()
	name := "figure2.csv"
	good := "a,b\n1,2\n"
	if err := writeFile(t, filepath.Join(dir, name), "a,b\n1,3\n"); err != nil {
		t.Fatal(err)
	}
	vs := CheckGolden(dir, fakeRenders(map[string]string{name: good}))
	if len(vs) == 0 {
		t.Fatal("gate passed on a tampered golden")
	}
	report := RenderViolations(vs)
	if !strings.Contains(report, "[golden] figure2.csv") || !strings.Contains(report, "first diff") {
		t.Fatalf("report not readable:\n%s", report)
	}
}
