// Command bench is the repository's end-to-end benchmark. It touches the
// system only from outside: it spawns real stationd processes and calls
// their HTTP endpoints for the serving and sidecar workloads, and calls
// the public functions of internal/experiment and internal/runner for
// the paper reproduction. Run it from the repository root through
// run.sh, which builds stationd and this driver first:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// With no --workload it runs all four workloads in turn. Each workload
// prints a table of every metric it measured, then one JSON line:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics, or with --trace 1 the per-layer metrics. The exit
// status is non-zero when any correctness check fails. See README.md
// for the workloads, the metric definitions and the known limits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir is where run.sh puts stationd and where traced runs write
// their spans; .gitignore lists it.
const buildDir = ".bench_build"

// metricSpec names one reported metric and its unit. The lists mirror
// BENCHMARK.json (a test keeps them in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"mean_score", "score"},
	{"units_per_req", "units/req"},
}

var perLayer = []metricSpec{
	{"bench.late_p99_ms", "ms"},
	{"stationd.overhead_p50_ms", "ms"},
	{"stationd.select_overhead_ms", "ms"},
	{"stationd.write_p50_ms", "ms"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.window_size_mean", "requests"},
	{"serve.dropped_windows", "count"},
	{"peers.fetches_per_req", "ratio"},
	{"peers.hit_ratio", "ratio"},
	{"peers.failures", "count"},
	{"peers.short_circuits", "count"},
	{"peers.probe_p50_ms", "ms"},
	{"station.hit_ratio", "ratio"},
	{"station.stale_ratio", "ratio"},
	{"core.solve_mean_ms", "ms"},
	{"core.solve_p99_ms", "ms"},
	{"core.plan_units_mean", "units"},
	{"experiment.fig2_s", "s"},
	{"experiment.fig3_s", "s"},
	{"experiment.fig4_s", "s"},
	{"experiment.fig5_s", "s"},
	{"experiment.fig6_s", "s"},
	{"runner.single_run_ms", "ms"},
	{"runner.multicell_run_ms", "ms"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed uint64
	dur  time.Duration // measured time: open plus closed phase, or repro passes
	tr   *tracer       // nil when tracing is off
}

// workload is one named traffic mix.
type workloadDef struct {
	name string
	run  func(context.Context, runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"serve-hot", func(ctx context.Context, rc runConfig) (*result, error) { return runServe(ctx, rc, serveHot) }},
	{"serve-cold", func(ctx context.Context, rc runConfig) (*result, error) { return runServe(ctx, rc, serveCold) }},
	{"select-sidecar", runSelect},
	{"sim-repro", runRepro},
}

// result is one workload run: operation counts, correctness problems,
// and the measured metrics. Per-layer metrics a workload does not pass
// through stay 0.
type result struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	notes             []string // sample counts and similar context for the table
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	return r
}

// check counts one operation or correctness check, and a failure when
// ok is false. Only the first few failure messages are kept.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds another tally (one worker's) into r.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, p := range o.problems {
		if len(r.problems) < 10 {
			r.problems = append(r.problems, p)
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report is the JSON line printed last.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportOf selects the metrics the run reports: end-to-end untraced,
// per-layer traced. A metric the workload forgot to set is a bug.
func reportOf(r *result, traced bool) (report, error) {
	specs, vals := endToEnd, r.e2e
	if traced {
		specs, vals = perLayer, r.layer
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok {
			return rep, fmt.Errorf("metric %s was not measured", m.name)
		}
		rep.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	return rep, nil
}

func printTable(name string, r *result) {
	fmt.Printf("== %s: %d attempted, %d failed (error_ratio %.6f)\n",
		name, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Printf("   FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Printf("   %s\n", n)
	}
	for _, group := range []struct {
		title string
		specs []metricSpec
		vals  map[string]float64
	}{{"end to end", endToEnd, r.e2e}, {"per layer", perLayer, r.layer}} {
		fmt.Printf("   -- %s\n", group.title)
		for _, m := range group.specs {
			fmt.Printf("   %-28s %14.6f %s\n", m.name, group.vals[m.name], m.unit)
		}
	}
}

func main() {
	name := flag.String("workload", "all", "workload to run: serve-hot, serve-cold, select-sidecar, sim-repro, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	quick := flag.Bool("quick", false, "wiring smoke: 2 seconds per workload, same checks")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	dur := time.Duration(*seconds) * time.Second
	if *quick {
		dur = 2 * time.Second
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("unknown workload %q", *name)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	allCorrect := true
	for _, w := range selected {
		rc := runConfig{seed: *seed, dur: dur}
		var untraced *result
		if *trace == 1 && *name == "all" {
			// Tracing overhead needs an untraced run of the same inputs.
			r, err := w.run(ctx, rc)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			untraced = r
			allCorrect = allCorrect && r.failed == 0
		}
		if *trace == 1 {
			rc.tr = &tracer{}
		}
		r, err := w.run(ctx, rc)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if ctx.Err() != nil {
			fatalf("interrupted")
		}
		printTable(w.name, r)
		if late := r.layer["bench.late_p99_ms"]; late > 1 {
			fmt.Printf("   VOID: the generator ran %.3f ms late at p99 (limit 1 ms); discard this run\n", late)
		}
		if untraced != nil {
			fmt.Printf("   tracing overhead on p50_ms: untraced %.4f ms (%d failed), traced %.4f ms\n",
				untraced.e2e["p50_ms"], untraced.failed, r.e2e["p50_ms"])
		}
		if rc.tr != nil {
			path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-s%d.jsonl", w.name, *seed))
			if err := rc.tr.dump(path); err != nil {
				fatalf("%s: write spans: %v", w.name, err)
			}
			fmt.Printf("   %d spans written to %s\n", len(rc.tr.spans), path)
		}
		rep, err := reportOf(r, *trace == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && rep.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
