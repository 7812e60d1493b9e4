package main

import (
	"os"
	"strings"
	"testing"
)

// capture runs run(which) with os.Stdout sent to a file and returns what
// it printed.
func capture(t *testing.T, which string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(which)
	os.Stdout = stdout
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// setFlag sets a flag for the rest of the test and restores it after.
func setFlag[T any](t *testing.T, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// TestUnknownNamesFailBeforeRunning checks that an unknown -format or
// -fig is an error and that no study runs or prints first.
func TestUnknownNamesFailBeforeRunning(t *testing.T) {
	for _, c := range []struct{ fig, format, err string }{
		{"table1", "bogus", `unknown format "bogus"`},
		{"all", "bogus", `unknown format "bogus"`},
		{"7", "table", `unknown figure "7"`},
	} {
		setFlag(t, format, c.format)
		out, err := capture(t, c.fig)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("-fig %s -format %s: err = %v, want %s", c.fig, c.format, err, c.err)
		}
		if out != "" {
			t.Fatalf("-fig %s -format %s printed output:\n%s", c.fig, c.format, out)
		}
	}
}

func TestQuickFullSystemPrintsBothTables(t *testing.T) {
	setFlag(t, quickFlag, true)
	for _, f := range []string{"table", "csv", "plot"} {
		setFlag(t, format, f)
		out, err := capture(t, "fullsystem")
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"Full system: request latency vs download budget",
			"Full system: utilization and score vs download budget",
			"mean latency", "mean client score", "fixed-link utilization", "downlink utilization",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("-format %s: output misses %q:\n%s", f, want, out)
			}
		}
	}
}

// splitAblation cuts the solver ablation's table, whose time column is
// wall clock, out of a -fig all rendering: it returns the rest of the
// output and the first field of each table line.
func splitAblation(t *testing.T, out string) (string, map[string]bool) {
	t.Helper()
	start := strings.Index(out, "# Solver ablation")
	if start < 0 {
		t.Fatal("output has no solver ablation table")
	}
	end := strings.Index(out[start:], "\n\n")
	if end < 0 {
		t.Fatal("solver ablation table is not followed by a blank line")
	}
	first := map[string]bool{}
	for _, line := range strings.Split(out[start:start+end], "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			first[f[0]] = true
		}
	}
	return out[:start] + out[start+end:], first
}

// TestQuickAllRendersEveryOutputDeterministically runs -fig all -quick
// -format csv twice: every output's title must appear, the ablation must
// list each solver, and the two runs must print the same bytes outside
// the ablation's table.
func TestQuickAllRendersEveryOutputDeterministically(t *testing.T) {
	setFlag(t, quickFlag, true)
	setFlag(t, format, "csv")
	first, err := capture(t, "all")
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{
		"# Table 1:",
		"# Figure 2:",
		"# Figure 3 (low update frequency",
		"# Figure 3 (high update frequency",
		"# Figure 4:",
		"# Figure 5(a):",
		"# Figure 5(b):",
		"# Figure 6(a):",
		"# Figure 6(b):",
		"# Replacement study:",
		"# Solver ablation",
		"# Full system: request latency",
		"# Full system: utilization",
		"# Broadcast baselines:",
		"# Invalidation strategies:",
		"# Adaptive budget:",
		"# Multi-cell study",
		"# Staleness estimation:",
		"# Quasi-copies:",
		"# Update heterogeneity:",
		"# Fault study",
		"# Resilience study",
		"# Dissemination study",
	} {
		if !strings.Contains(first, title) {
			t.Errorf("-fig all misses %q", title)
		}
	}
	rest, rows := splitAblation(t, first)
	for _, solver := range []string{"dp", "greedy", "branch-and-bound", "incremental(cold)", "incremental(warm)", "certified(0.05)"} {
		if !rows[solver] {
			t.Errorf("solver ablation misses row %q", solver)
		}
	}
	second, err := capture(t, "all")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := splitAblation(t, second); again != rest {
		t.Fatalf("two -fig all runs differ outside the ablation:\n%s\n---\n%s", rest, again)
	}
}
