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
