package mobicache

import "mobicache/internal/multicell"

// This file is the per-tick observation surface used by the experiment
// runner (cmd/experiment-runner): the same simulations RunSimulation and
// RunMulticell execute, but with a sampling callback invoked after every
// measured tick so harnesses can archive time series (per-tick CSVs)
// without re-running a configuration once per horizon length. Sampling
// never perturbs a run — the final report is byte-identical to the
// unsampled entry point's.

// RunSimulationTicks runs the configured single-cell simulation exactly
// as RunSimulation does, but calls sample after every measured tick with
// the number of measured ticks completed so far (1-based) and the report
// aggregated over them. Warmup ticks are not sampled. A non-nil error
// from sample aborts the run and is returned; a nil sample makes this
// identical to RunSimulation.
func RunSimulationTicks(cfg SimulationConfig, sample func(ticks int, rep SimulationReport) error) (SimulationReport, error) {
	if err := validateHorizon(cfg); err != nil {
		return SimulationReport{}, err
	}
	c, err := buildCell(cfg)
	if err != nil {
		return SimulationReport{}, err
	}
	gen, _, err := buildGenerator(cfg)
	if err != nil {
		return SimulationReport{}, err
	}
	return c.run(0, cfg.Warmup+cfg.Ticks, cfg.Warmup, gen.Tick, sample)
}

// RunMulticellTicks runs the configured multi-cell deployment exactly as
// RunMulticell does, but calls sample after every tick with the number
// of ticks completed so far (1-based) and the report aggregated over
// them. A non-nil error from sample aborts the run and is returned; a
// nil sample makes this identical to RunMulticell.
func RunMulticellTicks(cfg MulticellConfig, sample func(ticks int, rep MulticellReport) error) (MulticellReport, error) {
	sys, err := buildMulticell(cfg)
	if err != nil {
		return MulticellReport{}, err
	}
	var inner func(int, multicell.Report) error
	if sample != nil {
		inner = func(n int, r multicell.Report) error { return sample(n, multicellReport(r)) }
	}
	r, err := sys.RunSampled(cfg.Ticks, inner)
	if err != nil {
		return MulticellReport{}, err
	}
	return multicellReport(r), nil
}
