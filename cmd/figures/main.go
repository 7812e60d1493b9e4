// Command figures regenerates every table and figure of the paper's
// evaluation, plus the extension studies, printing the series the paper
// plots as text tables (default), CSV, or ASCII plots.
//
// Usage:
//
//	figures -fig all                 # everything, paper-scale
//	figures -fig 2 -format plot     # Figure 2 as an ASCII plot
//	figures -fig 5 -format csv      # Figure 5 panels as CSV
//	figures -fig table1             # Table 1
//	figures -fig replacement        # limited-cache extension study
//	figures -fig ablation           # knapsack solver ablation
//	figures -fig fullsystem         # Figure 1 latency/utilization study
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mobicache/internal/experiment"
	"mobicache/internal/metrics"
	"mobicache/internal/obs"
)

var (
	figFlag    = flag.String("fig", "all", "which figure to regenerate: 2, 3, 4, 5, 6, table1, replacement, ablation, fullsystem, broadcast, sleeper, adaptive, multicell, estimation, quasi, heterogeneity, faults, resilience, dissemination, or all")
	format     = flag.String("format", "table", "output format: table, csv, or plot")
	seed       = flag.Uint64("seed", 0, "override the default experiment seed (0 keeps defaults)")
	quickFlag  = flag.Bool("quick", false, "run scaled-down configurations (for smoke tests)")
	plotWidth  = flag.Int("plot-width", 72, "ASCII plot width")
	plotHeight = flag.Int("plot-height", 20, "ASCII plot height")
	solverFlag = flag.String("solver", "dp", "knapsack solver behind the knapsack-backed studies (adaptive, heterogeneity, faults): dp, greedy, incremental, certified")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	metricsOut = flag.String("metrics-out", "", "write a JSON snapshot of the run's station metrics to this file")
)

// reg is non-nil when -metrics-out is set: station counters/histograms
// aggregate across every figure run, and each dispatched figure records
// its wall time as a gauge.
var reg *obs.Registry

func main() {
	flag.Parse()
	if err := experiment.SetSolverName(*solverFlag); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		experiment.SetMetrics(obs.NewStationMetrics(reg, 0))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	err := run(*figFlag)
	if err == nil && *metricsOut != "" {
		err = writeMetricsSnapshot(*metricsOut)
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr == nil {
			runtime.GC() // flush recently freed objects out of the profile
			merr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "figures:", merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// timed runs one figure, recording its wall time in the metrics registry
// when -metrics-out is active.
func timed(name string, f func() error) error {
	if reg == nil {
		return f()
	}
	start := time.Now()
	err := f()
	reg.Gauge(fmt.Sprintf("figures_run_seconds{fig=%q}", name),
		"wall-clock time of the last run of each figure").Set(time.Since(start).Seconds())
	return err
}

// writeMetricsSnapshot dumps the registry as indented JSON, the artifact
// scripts/bench.sh archives next to the benchmark numbers (the same
// format the experiment runner writes per run).
func writeMetricsSnapshot(path string) error {
	return reg.Snapshot().WriteFile(path)
}

func run(which string) error {
	switch *format {
	case "table", "csv", "plot":
	default:
		return fmt.Errorf("unknown format %q (want table, csv, or plot)", *format)
	}
	type figure struct {
		name string
		f    func() error
	}
	figures := []figure{
		{"2", figure2}, {"3", figure3}, {"4", figure4}, {"5", figure5}, {"6", figure6},
		{"replacement", replacement}, {"ablation", ablation}, {"fullsystem", fullsystem},
		{"broadcast", broadcastStudy}, {"sleeper", sleeperStudy}, {"adaptive", adaptiveStudy},
		{"multicell", multicellStudy}, {"estimation", estimationStudy}, {"quasi", quasiStudy},
		{"heterogeneity", heterogeneityStudy}, {"faults", faultStudy}, {"resilience", resilienceStudy},
		{"dissemination", disseminationStudy},
	}
	if which == "table1" {
		fmt.Print(experiment.Table1())
		return nil
	}
	if which == "all" {
		fmt.Print(experiment.Table1())
		fmt.Println()
		for _, fig := range figures {
			if err := timed(fig.name, fig.f); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	for _, fig := range figures {
		if fig.name == which {
			return timed(fig.name, fig.f)
		}
	}
	return fmt.Errorf("unknown figure %q", which)
}

func emit(fig *metrics.Figure) {
	switch *format {
	case "csv":
		fmt.Printf("# %s\n%s", fig.Title, fig.CSV())
	case "plot":
		fmt.Print(fig.Plot(*plotWidth, *plotHeight))
	default:
		fmt.Print(fig.Table())
	}
}

func figure2() error {
	cfg := experiment.DefaultFigure2()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.Warmup, cfg.Measure = 100, 20, 100
		cfg.Rates = []int{0, 25, 50, 100}
	}
	fig, err := experiment.Figure2(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func figure3() error {
	cfg := experiment.DefaultFigure3()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.RatePerTick = 100, 50
		cfg.Ks = []int{1, 10, 25, 50}
		cfg.Warmup, cfg.Measure = 20, 50
	}
	figs, err := experiment.Figure3(cfg)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		emit(fig)
	}
	return nil
}

func solutionCfg() experiment.SolutionSpaceConfig {
	cfg := experiment.DefaultSolutionSpace()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	return cfg
}

func figure4() error {
	fig, err := experiment.Figure4(solutionCfg())
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func figure5() error {
	figs, err := experiment.Figure5(solutionCfg())
	if err != nil {
		return err
	}
	for _, fig := range figs {
		emit(fig)
		fmt.Printf("# all curves exceed 0.9 at budget %v\n",
			experiment.ConvergenceAll(fig, 0.9))
	}
	return nil
}

func figure6() error {
	figs, err := experiment.Figure6(solutionCfg())
	if err != nil {
		return err
	}
	for _, fig := range figs {
		emit(fig)
		fmt.Printf("# all curves exceed 0.9 at budget %v\n",
			experiment.ConvergenceAll(fig, 0.9))
	}
	return nil
}

func replacement() error {
	cfg := experiment.DefaultReplacement()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.Warmup, cfg.Measure = 60, 20, 40
		cfg.Fractions = []float64{0.1, 0.5}
	}
	fig, err := experiment.Replacement(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func ablation() error {
	s := uint64(1)
	if *seed != 0 {
		s = *seed
	}
	rows, err := experiment.SolverAblation(s, 2500)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderSolverAblation(rows))
	return nil
}

func fullsystem() error {
	cfg := experiment.DefaultFullSystemStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.RatePerTick, cfg.Ticks = 50, 10, 60
		cfg.Budgets = []int64{2, 20}
	}
	latFig, utilFig, err := experiment.FullSystemStudy(cfg)
	if err != nil {
		return err
	}
	emit(latFig)
	emit(utilFig)
	return nil
}

func broadcastStudy() error {
	cfg := experiment.DefaultBroadcastStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Draws = 10000
	}
	fig, err := experiment.BroadcastStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func sleeperStudy() error {
	cfg := experiment.DefaultSleeperStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Ticks = 4000
	}
	fig, err := experiment.SleeperStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func adaptiveStudy() error {
	cfg := experiment.DefaultAdaptiveStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.Warmup, cfg.Measure = 120, 20, 60
		cfg.FixedBudgets = []int64{5, 20, 60}
	}
	fig, err := experiment.AdaptiveStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	if s := fig.Lookup("adaptive"); s != nil && s.Len() == 1 {
		fmt.Printf("# adaptive operating point: %.2f units/tick -> score %.4f\n", s.X[0], s.Y[0])
	}
	return nil
}

func estimationStudy() error {
	cfg := experiment.DefaultEstimationStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.RatePerTick, cfg.Warmup, cfg.Measure = 120, 40, 20, 60
		cfg.Ks = []int{2, 10, 30}
	}
	fig, err := experiment.EstimationStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func heterogeneityStudy() error {
	cfg := experiment.DefaultHeterogeneityStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.RatePerTick, cfg.Warmup, cfg.Measure = 100, 30, 20, 80
		cfg.VolatileFractions = []float64{0.2, 0.6, 1.0}
	}
	fig, err := experiment.HeterogeneityStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func faultStudy() error {
	cfg := experiment.DefaultFaultStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.RatePerTick, cfg.Warmup, cfg.Measure = 100, 30, 20, 50
		cfg.FailureProbs = []float64{0, 0.3, 0.6, 0.9}
	}
	fig, err := experiment.FaultStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func disseminationStudy() error {
	cfg := experiment.DefaultDisseminationStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.RatePerTick, cfg.Warmup, cfg.Measure = 64, 20, 20, 100
		cfg.Threshold = 8
		cfg.Levels = cfg.Levels[:2]
	}
	fig, _, err := experiment.DisseminationStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func quasiStudy() error {
	cfg := experiment.DefaultQuasiStudy()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *quickFlag {
		cfg.Objects, cfg.Ticks = 80, 600
	}
	fig, err := experiment.QuasiStudy(cfg)
	if err != nil {
		return err
	}
	emit(fig)
	return nil
}

func multicellStudy() error {
	s := uint64(1)
	if *seed != 0 {
		s = *seed
	}
	out, err := experiment.MulticellStudy(4, s)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func resilienceStudy() error {
	s := uint64(1)
	if *seed != 0 {
		s = *seed
	}
	out, err := experiment.ResilienceStudy(4, s)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
