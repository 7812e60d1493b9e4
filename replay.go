package mobicache

import (
	"fmt"
	"io"

	"mobicache/internal/workload"
)

// WriteTrace records a request batch as JSON lines (one request per
// line), the repository's interchange format for workloads.
func WriteTrace(w io.Writer, reqs []Request) error {
	return workload.WriteTrace(w, reqs)
}

// ReadTrace reads a JSON-lines request trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Request, error) {
	return workload.ReadTrace(r)
}

// GenerateTrace produces the request stream the given simulation
// configuration would feed to its base station, without running the
// simulation — useful for recording reproducible workloads or feeding
// other implementations. Warmup ticks are included (ticks 0..Warmup-1).
func GenerateTrace(cfg SimulationConfig) ([]Request, error) {
	// Validate the horizon before building anything so an invalid config
	// fails with the same error RunSimulation reports, not a generator
	// artifact.
	if err := validateHorizon(cfg); err != nil {
		return nil, err
	}
	gen, _, err := buildGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var out []Request
	for tick := 0; tick < cfg.Warmup+cfg.Ticks; tick++ {
		out = append(out, gen.Tick(tick)...)
	}
	return out, nil
}

// ReplayTrace runs the configured system against a recorded request
// trace instead of a generated stream. The trace's tick numbers drive
// the clock; cfg's Access / RequestsPerTick / Target fields are ignored.
// Ticks up to cfg.Warmup are executed but excluded from the report.
func ReplayTrace(cfg SimulationConfig, reqs []Request) (SimulationReport, error) {
	c, err := buildCell(cfg)
	if err != nil {
		return SimulationReport{}, err
	}
	if len(reqs) == 0 {
		return SimulationReport{}, fmt.Errorf("mobicache: empty trace")
	}
	batches := workload.SplitByTick(reqs)
	// SplitByTick indexes batches from the trace's lowest tick, which is
	// not necessarily 0: replay each batch at its true tick so update
	// schedules and the warmup cutoff stay aligned with the recording.
	lo, _ := workload.TickBounds(reqs)
	return c.run(lo, lo+len(batches), cfg.Warmup, func(tick int) []Request { return batches[tick-lo] }, nil)
}
