package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"mobicache/internal/experiment"
	"mobicache/internal/runner"
)

const (
	goldenDir = "results/golden"
	runsDir   = "results/runs"
)

// reproSetup is what the reproduction loads before it times anything:
// the archived sweep's manifest, its expanded matrix, and its summaries.
type reproSetup struct {
	fixed    runner.Fixed
	combos   []runner.Combo
	baseline []runner.Summary
}

func loadRepro() (reproSetup, error) {
	m, err := runner.LoadManifest(runsDir)
	if err != nil {
		return reproSetup{}, err
	}
	combos, err := m.Matrix.Expand()
	if err != nil {
		return reproSetup{}, err
	}
	baseline, corrupt, err := runner.LoadSweep(runsDir)
	if err != nil {
		return reproSetup{}, err
	}
	if len(corrupt) > 0 {
		return reproSetup{}, fmt.Errorf("archived sweep: %v", corrupt[0])
	}
	return reproSetup{fixed: m.Fixed, combos: combos, baseline: baseline}, nil
}

// runRepro reproduces the paper in process, pass after pass until the
// run's time is up. A pass renders Figures 2-6 through
// experiment.GoldenFigures and runs runner.Execute over every
// combination of the archived sweep's matrix, timing each call. Figures
// must match results/golden byte for byte; at seed 1 the summaries must
// pass the runner's gate against results/runs; at every seed each pass
// must equal the first.
func runRepro(ctx context.Context, rc runConfig) (*result, error) {
	res := newResult()
	st, setupS, err := timedSetups(setups, loadRepro, func(reproSetup) {})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	fixed := st.fixed
	fixed.Seed = rc.seed

	var calls, gaps, single, multi, passRates []float64
	figSecs := map[string][]float64{}
	first := make([]*runner.RunResult, len(st.combos))
	var solve, tickUnits histogram
	var scoreSum, downloads, requests float64

	start := time.Now()
	rc.tr.begin(start)
	last := start // end of the previous call: the gap to the next is harness time
	timed := func(name string, pass uint64, f func() error) (time.Duration, error) {
		t0 := time.Now()
		gaps = append(gaps, t0.Sub(last).Seconds()*1e3)
		err := f()
		t1 := time.Now()
		last = t1
		rc.tr.add(name, pass, pass, t0, t1)
		calls = append(calls, t1.Sub(t0).Seconds()*1e3)
		return t1.Sub(t0), err
	}
	passes := 0
	for ; passes == 0 || time.Since(start) < rc.dur; passes++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		passID, passStart, passCalls := rc.tr.reserve(), time.Now(), len(calls)
		renders := map[string]func() (string, error){}
		for name, render := range experiment.GoldenFigures() {
			renders[name] = func() (string, error) {
				var out string
				d, err := timed(strings.TrimSuffix(name, ".csv"), passID, func() (err error) {
					out, err = render()
					return err
				})
				figSecs[name] = append(figSecs[name], d.Seconds())
				return out, err
			}
		}
		bad := map[string]string{}
		for _, v := range runner.CheckGolden(goldenDir, renders) {
			bad[v.Name] = v.String()
		}
		for name := range renders {
			res.check(bad[name] == "", "%s", bad[name])
		}

		var sums []runner.Summary
		for ci, combo := range st.combos {
			var run *runner.RunResult
			d, err := timed("execute", passID, func() (err error) {
				run, err = runner.Execute(combo, fixed)
				return err
			})
			if combo.Cells == 1 {
				single = append(single, d.Seconds()*1e3)
			} else {
				multi = append(multi, d.Seconds()*1e3)
			}
			if err != nil {
				res.check(false, "execute %s: %v", combo.ID(fixed.Seed), err)
				continue
			}
			if passes == 0 {
				first[ci] = run
				sums = append(sums, run.Summary)
				scoreSum += run.Summary.Metrics["mean_score"]
				downloads += run.Summary.Metrics["downloads"]
				requests += run.Summary.Metrics["requests"]
				tickUnits = tickUnits.plus(snapshotHistogram(run.Metrics.Histograms["mobicache_tick_download_units"]))
			}
			solve = solve.plus(snapshotHistogram(run.Metrics.Histograms["mobicache_solve_seconds"]))
			same := first[ci] != nil && reflect.DeepEqual(run.Summary, first[ci].Summary) &&
				bytes.Equal(run.TicksCSV, first[ci].TicksCSV)
			res.check(same, "pass %d: %s differs from the first pass", passes+1, combo.ID(fixed.Seed))
		}
		if passes == 0 && rc.seed == 1 {
			vs := runner.CheckSummaries(sums, st.baseline, runner.DefaultTolerance)
			res.check(len(vs) == 0, "summaries against %s: %s", runsDir, runner.RenderViolations(vs))
		}
		rc.tr.addAs(passID, "pass", 0, 0, passStart, time.Now())
		passRates = append(passRates, float64(len(calls)-passCalls)/time.Since(passStart).Seconds())
	}
	elapsed := time.Since(start)

	res.note("%d passes of %d figures and %d runs in %.1fs", passes, len(figSecs), len(st.combos), elapsed.Seconds())
	res.e2e["p50_ms"] = pct(calls, 0.50)
	res.e2e["p99_ms"] = pct(calls, 0.99)
	res.e2e["capacity_rps"] = median(passRates)
	res.e2e["mean_score"] = scoreSum / float64(len(st.combos))
	// The sweep's objects are unit-size, so downloads are data units.
	res.e2e["units_per_req"] = ratio(downloads, requests)

	res.layer["bench.late_p99_ms"] = pct(gaps, 0.99)
	for name, secs := range figSecs { // figure2.csv -> experiment.fig2_s
		res.layer["experiment."+strings.Replace(strings.TrimSuffix(name, ".csv"), "figure", "fig", 1)+"_s"] = median(secs)
	}
	res.layer["runner.single_run_ms"] = median(single)
	res.layer["runner.multicell_run_ms"] = median(multi)
	res.layer["core.solve_mean_ms"] = solve.mean() * 1e3
	res.layer["core.solve_p99_ms"] = solve.quantile(0.99) * 1e3
	res.layer["core.plan_units_mean"] = tickUnits.mean()
	return res, nil
}
