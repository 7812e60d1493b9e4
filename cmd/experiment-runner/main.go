// Command experiment-runner is the automated experiment harness: one
// command that sweeps the {solver × access skew × budget × cells ×
// mobility × fault profile} matrix, archives every run under
// results/runs/<run-id>/ (config.json, ticks.csv, metrics.json,
// summary.json) with a cross-run comparison table, and gates
// regressions against archived baselines.
//
// Modes:
//
//	experiment-runner                                  # sweep the default 64-combination matrix
//	experiment-runner -solvers dp,incremental -cells 1 # sweep a sub-matrix
//	experiment-runner -baseline results/runs.prev      # sweep + summary gate vs an archived sweep
//	experiment-runner -mode gate                       # golden-figure + benchmark regression gate
//	experiment-runner -mode bench -out-bench BENCH.json# run + archive the bench set (scripts/bench.sh)
//
// Every run id is a deterministic function of the configuration and the
// seed; re-running a sweep with the same seed reproduces every summary
// JSON byte for byte. The gate exits non-zero with one readable diff
// line per violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mobicache/internal/experiment"
	"mobicache/internal/runner"
)

var (
	mode = flag.String("mode", "sweep", "sweep (expand+run+archive the matrix), gate (golden+bench regression checks), or bench (archive the benchmark set)")

	// Sweep matrix dimensions, comma-separated; empty keeps the default
	// matrix's dimension.
	solvers   = flag.String("solvers", "", "solver dimension (dp,greedy,incremental,certified)")
	accesses  = flag.String("accesses", "", "access-skew dimension (uniform,linear,zipf)")
	budgets   = flag.String("budgets", "", "per-tick budget dimension, data units (0 = unlimited)")
	cells     = flag.String("cells", "", "cell-count dimension (1 = single-cell simulation)")
	mobility  = flag.String("mobility", "", "mobility-profile dimension (default,static,nomadic)")
	profiles  = flag.String("profiles", "", "fault/resilience-profile dimension (ideal,flaky,blackout,resilient)")
	policies  = flag.String("policies", "", "dissemination-policy dimension (on-demand,push-ts,push-at,broadcast-flat,broadcast-disk,hybrid-pushpull)")
	objects   = flag.Int("objects", 0, "catalog size (0 = default 120)")
	rate      = flag.Int("rate", 0, "single-cell requests per tick (0 = default 40)")
	clients   = flag.Int("clients", 0, "multi-cell population (0 = default 160)")
	reqProb   = flag.Float64("reqprob", 0, "multi-cell per-client request probability (0 = default 0.3)")
	warmup    = flag.Int("warmup", 0, "single-cell warmup ticks (0 = default 40)")
	ticks     = flag.Int("ticks", 0, "measured horizon (0 = default 240)")
	seed      = flag.Uint64("seed", 0, "sweep seed, part of every run id (0 = default 1)")
	sample    = flag.Int("sample-every", 0, "ticks.csv sampling stride (0 = default 10)")
	outDir    = flag.String("out", "results/runs", "sweep archive directory")
	baseline  = flag.String("baseline", "", "archived baseline sweep directory to gate summaries against")
	tolerance = flag.Float64("tolerance", runner.DefaultTolerance, "relative tolerance for summary and benchmark comparisons")

	// Gate + bench mode flags.
	goldenDir     = flag.String("golden", "results/golden", "golden figure directory for -mode gate (empty skips the golden check)")
	benchBaseline = flag.String("bench-baseline", "", "archived BENCH_*.json to gate benchmark timings against (empty skips)")
	benchPattern  = flag.String("bench", "", "benchmark name pattern (default: the bench.sh hot-path set)")
	// 200 iterations x 3 runs, keeping the per-benchmark minimum: a
	// single short run flaps the 20% gate on microsecond-scale
	// benchmarks; min-of-N is one-sided against scheduler noise.
	benchTime  = flag.String("benchtime", "200x", "go test -benchtime for bench runs")
	benchCount = flag.Int("benchcount", 3, "go test -count for bench runs; the per-benchmark minimum is kept")
	outBench   = flag.String("out-bench", "", "write the benchmark results JSON here (-mode bench)")
	appendNew  = flag.Bool("append-bench", true, "after a passing bench gate, append benchmarks new in this run to the -bench-baseline file so the trajectory grows rows automatically")
)

func main() {
	flag.Parse()
	var err error
	switch *mode {
	case "sweep":
		err = sweep()
	case "gate":
		err = gate()
	case "bench":
		err = bench()
	default:
		err = fmt.Errorf("unknown mode %q (want sweep, gate, or bench)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment-runner:", err)
		os.Exit(1)
	}
}

// matrix resolves the dimension flags over the default matrix.
func matrix() (runner.Matrix, error) {
	m := runner.DefaultMatrix()
	if *solvers != "" {
		m.Solvers = strings.Split(*solvers, ",")
	}
	if *accesses != "" {
		m.Accesses = strings.Split(*accesses, ",")
	}
	if *budgets != "" {
		vals, err := parseInt64s(*budgets)
		if err != nil {
			return m, fmt.Errorf("-budgets: %w", err)
		}
		m.Budgets = vals
	}
	if *cells != "" {
		vals, err := parseInts(*cells)
		if err != nil {
			return m, fmt.Errorf("-cells: %w", err)
		}
		m.Cells = vals
	}
	if *mobility != "" {
		m.Mobility = strings.Split(*mobility, ",")
	}
	if *profiles != "" {
		m.Profiles = strings.Split(*profiles, ",")
	}
	if *policies != "" {
		m.Policies = strings.Split(*policies, ",")
	}
	return m, nil
}

func parseInts(csv string) ([]int, error) {
	var vals []int
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func parseInt64s(csv string) ([]int64, error) {
	var vals []int64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// sweep expands and runs the matrix, archives every run, writes the
// comparison table, and — when -baseline names an archived sweep —
// gates the summaries against it.
func sweep() error {
	m, err := matrix()
	if err != nil {
		return err
	}
	res, err := runner.Sweep(runner.SweepConfig{
		Matrix: m,
		Fixed: runner.Fixed{
			Objects:         *objects,
			RequestsPerTick: *rate,
			Clients:         *clients,
			RequestProb:     *reqProb,
			Warmup:          *warmup,
			Ticks:           *ticks,
			Seed:            *seed,
			SampleEvery:     *sample,
		},
		OutDir:   *outDir,
		Progress: os.Stderr,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "archived %d runs under %s\n", len(res.Runs), res.Dir)
	fmt.Print(runner.RenderComparisonTable(res.Summaries))
	if *baseline == "" {
		return nil
	}
	baseSums, corrupt, err := runner.LoadSweep(*baseline)
	if err != nil {
		return err
	}
	for _, c := range corrupt {
		fmt.Fprintf(os.Stderr, "baseline: %v\n", c)
	}
	vs := runner.CheckSummaries(res.Summaries, baseSums, *tolerance)
	if len(corrupt) > 0 || len(vs) > 0 {
		fmt.Fprint(os.Stderr, runner.RenderViolations(vs))
		return fmt.Errorf("summary gate: %d violations, %d corrupt baseline runs vs %s",
			len(vs), len(corrupt), *baseline)
	}
	fmt.Fprintf(os.Stderr, "summary gate: %d runs within %.0f%% of %s\n",
		len(baseSums), 100**tolerance, *baseline)
	return nil
}

// gate re-checks the golden figures byte-identically and compares
// benchmark timings against the archived baseline.
func gate() error {
	var violations []runner.Violation
	if *goldenDir != "" {
		vs := runner.CheckGolden(*goldenDir, experiment.GoldenFigures())
		violations = append(violations, vs...)
		fmt.Fprintf(os.Stderr, "golden gate: %d figures checked against %s, %d violations\n",
			len(experiment.GoldenFigures()), *goldenDir, len(vs))
	}
	if *benchBaseline != "" {
		base, err := runner.ReadBench(*benchBaseline)
		if err != nil {
			return err
		}
		current, err := runner.RunBench(".", *benchPattern, *benchTime, *benchCount, os.Stderr)
		if err != nil {
			return err
		}
		vs := runner.CheckBench(current, base, *tolerance)
		violations = append(violations, vs...)
		fmt.Fprintf(os.Stderr, "bench gate: %d benchmarks vs %s, %d violations\n",
			len(current), *benchBaseline, len(vs))
		// A passing gate grows the trajectory: benchmarks that exist only
		// in the current run (new code, renamed sets) are appended to the
		// baseline so the next gate covers them too. A failing gate never
		// rewrites its own baseline.
		if len(vs) == 0 && *appendNew {
			merged, added := runner.MergeBench(base, current)
			if added > 0 {
				if err := runner.WriteBench(*benchBaseline, merged); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "bench gate: appended %d new benchmarks to %s\n",
					added, *benchBaseline)
			}
		}
	}
	if len(violations) > 0 {
		fmt.Fprint(os.Stderr, runner.RenderViolations(violations))
		return fmt.Errorf("regression gate: %d violations", len(violations))
	}
	return nil
}

// bench runs the hot-path benchmark set and archives the parsed numbers
// as JSON — the Go home of scripts/bench.sh's former awk parsing.
func bench() error {
	if *outBench == "" {
		return fmt.Errorf("-mode bench needs -out-bench")
	}
	results, err := runner.RunBench(".", *benchPattern, *benchTime, *benchCount, os.Stderr)
	if err != nil {
		return err
	}
	if err := runner.WriteBench(*outBench, results); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *outBench, len(results))
	return nil
}
