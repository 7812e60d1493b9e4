package runner

import (
	"fmt"
	"strconv"
	"strings"

	"mobicache"
	"mobicache/internal/obs"
)

// Fixed holds the sweep-level parameters shared by every combination of
// a sweep: the workload scale, the horizon, and the seed. Zero values
// are filled by WithDefaults.
type Fixed struct {
	// Objects is the catalog size (unit-size objects).
	Objects int `json:"objects"`
	// RequestsPerTick is the single-cell client request rate.
	RequestsPerTick int `json:"requests_per_tick"`
	// Clients and RequestProb size the multi-cell mobile population.
	Clients     int     `json:"clients"`
	RequestProb float64 `json:"request_prob"`
	// Warmup ticks run unmeasured before the single-cell measurement
	// phase (the multi-cell engine measures from tick zero).
	Warmup int `json:"warmup"`
	// Ticks is the measured horizon.
	Ticks int `json:"ticks"`
	// Seed drives all randomness and is part of every run id.
	Seed uint64 `json:"seed"`
	// SampleEvery is the per-tick CSV sampling stride; the final tick is
	// always sampled.
	SampleEvery int `json:"sample_every"`
}

// WithDefaults fills zero fields with the default sweep scale.
func (f Fixed) WithDefaults() Fixed {
	if f.Objects == 0 {
		f.Objects = 120
	}
	if f.RequestsPerTick == 0 {
		f.RequestsPerTick = 40
	}
	if f.Clients == 0 {
		f.Clients = 160
	}
	if f.RequestProb == 0 {
		f.RequestProb = 0.3
	}
	if f.Warmup == 0 {
		f.Warmup = 40
	}
	if f.Ticks == 0 {
		f.Ticks = 240
	}
	if f.Seed == 0 {
		f.Seed = 1
	}
	if f.SampleEvery == 0 {
		f.SampleEvery = 10
	}
	return f
}

// ResolvedConfig is the fully resolved configuration archived as
// config.json in each run directory: the combination, the sweep-level
// parameters, and the expanded profile contents (so an archive is
// interpretable even after profile definitions change).
type ResolvedConfig struct {
	ID       string          `json:"id"`
	Combo    Combo           `json:"combo"`
	Fixed    Fixed           `json:"fixed"`
	Mobility MobilityProfile `json:"mobility_profile"`
	Profile  FaultProfile    `json:"fault_profile"`
}

// Summary is the archived summary.json: the run's headline metrics as a
// flat name→value map (deterministically marshaled — encoding/json sorts
// map keys) plus the integrity row count of ticks.csv.
type Summary struct {
	ID    string `json:"id"`
	Ticks int    `json:"ticks"`
	// TickRows is the number of data rows written to ticks.csv; loaders
	// use it to detect truncated archives.
	TickRows int                `json:"tick_rows"`
	Metrics  map[string]float64 `json:"metrics"`
}

// RunResult is one executed combination's artifacts, in memory.
type RunResult struct {
	Config   ResolvedConfig
	Summary  Summary
	TicksCSV []byte
	Metrics  obs.Snapshot
}

// ticksHeader is the per-tick CSV schema, shared by the single- and
// multi-cell paths: cumulative measured-phase counters after each
// sampled tick.
const ticksHeader = "tick,requests,downloads,mean_score,mean_recency,failed_downloads,stale_fallbacks,shed_requests,short_circuits"

// Execute runs one combination through the public facade and returns its
// artifacts. The result is a pure function of (combo, fixed).
func Execute(combo Combo, fixed Fixed) (*RunResult, error) {
	fixed = fixed.WithDefaults()
	mob, ok := MobilityProfiles[combo.Mobility]
	if !ok {
		return nil, fmt.Errorf("runner: unknown mobility profile %q", combo.Mobility)
	}
	prof, ok := FaultProfiles[combo.Profile]
	if !ok {
		return nil, fmt.Errorf("runner: unknown fault profile %q", combo.Profile)
	}
	res := &RunResult{
		Config: ResolvedConfig{
			ID:       combo.ID(fixed.Seed),
			Combo:    combo,
			Fixed:    fixed,
			Mobility: mob,
			Profile:  prof,
		},
	}
	if combo.Cells == 1 {
		return res, executeSingle(combo, fixed, prof, res)
	}
	return res, executeMulticell(combo, fixed, mob, prof, res)
}

// dissemination maps a combination's policy onto the facade config:
// nil for the on-demand station, the named push strategy otherwise.
func (c Combo) dissemination() *mobicache.DisseminationConfig {
	if c.Policy == "" || c.Policy == "on-demand" {
		return nil
	}
	return &mobicache.DisseminationConfig{Strategy: c.Policy}
}

// executeSingle runs a cells=1 combination via RunSimulationTicks.
func executeSingle(combo Combo, fixed Fixed, prof FaultProfile, res *RunResult) error {
	reg := mobicache.NewMetricsRegistry()
	cfg := mobicache.SimulationConfig{
		Objects:         fixed.Objects,
		Solver:          combo.Solver,
		Access:          combo.Access,
		BudgetPerTick:   combo.Budget,
		RequestsPerTick: fixed.RequestsPerTick,
		Warmup:          fixed.Warmup,
		Ticks:           fixed.Ticks,
		Seed:            fixed.Seed,
		Fault:           prof.Fault,
		Resilience:      prof.Resilience,
		Metrics:         mobicache.NewStationMetrics(reg, 0),
		Dissemination:   combo.dissemination(),
	}
	var csv strings.Builder
	csv.WriteString(ticksHeader + "\n")
	rows := 0
	rep, err := mobicache.RunSimulationTicks(cfg, func(ticks int, r mobicache.SimulationReport) error {
		if ticks%fixed.SampleEvery != 0 && ticks != fixed.Ticks {
			return nil
		}
		rows++
		writeRow(&csv, ticks,
			r.Requests, r.Downloads, r.MeanScore, r.MeanRecency,
			r.FailedDownloads, r.StaleFallbacks, r.ShedRequests, r.ShortCircuits)
		return nil
	})
	if err != nil {
		return err
	}
	res.TicksCSV = []byte(csv.String())
	res.Metrics = reg.Snapshot()
	res.Summary = Summary{
		ID:       res.Config.ID,
		Ticks:    rep.Ticks,
		TickRows: rows,
		Metrics: map[string]float64{
			"requests":         float64(rep.Requests),
			"downloads":        float64(rep.Downloads),
			"download_units":   float64(rep.DownloadUnits),
			"mean_score":       rep.MeanScore,
			"mean_recency":     rep.MeanRecency,
			"cache_hit_rate":   rep.CacheHitRate,
			"failed_downloads": float64(rep.FailedDownloads),
			"retries":          float64(rep.Retries),
			"stale_fallbacks":  float64(rep.StaleFallbacks),
			"shed_requests":    float64(rep.ShedRequests),
			"short_circuits":   float64(rep.ShortCircuits),
			"breaker_trips":    float64(rep.BreakerTrips),
			"degraded_ticks":   float64(rep.DegradedTicks),
			"reports":          float64(rep.InvalidationReports),
			"invalidated":      float64(rep.InvalidatedEntries),
			"purges":           float64(rep.TerminalPurges),
			"push_served":      float64(rep.PushServed),
			"pull_served":      float64(rep.PullServed),
			"push_units":       float64(rep.PushUnits),
		},
	}
	return nil
}

// executeMulticell runs a cells>1 combination via RunMulticellTicks.
func executeMulticell(combo Combo, fixed Fixed, mob MobilityProfile, prof FaultProfile, res *RunResult) error {
	reg := mobicache.NewMetricsRegistry()
	cfg := mobicache.MulticellConfig{
		Cells:         combo.Cells,
		Objects:       fixed.Objects,
		Solver:        combo.Solver,
		Access:        combo.Access,
		BudgetPerTick: combo.Budget,
		Clients:       fixed.Clients,
		RequestProb:   fixed.RequestProb,
		MeanResidence: mob.MeanResidence,
		PDisconnect:   mob.PDisconnect,
		MeanAbsence:   mob.MeanAbsence,
		Ticks:         fixed.Ticks,
		Seed:          fixed.Seed,
		Fault:         prof.Fault,
		Resilience:    prof.Resilience,
		Metrics:       mobicache.NewMulticellMetrics(reg, 0),
		Dissemination: combo.dissemination(),
	}
	var csv strings.Builder
	csv.WriteString(ticksHeader + "\n")
	rows := 0
	rep, err := mobicache.RunMulticellTicks(cfg, func(ticks int, r mobicache.MulticellReport) error {
		if ticks%fixed.SampleEvery != 0 && ticks != fixed.Ticks {
			return nil
		}
		rows++
		writeRow(&csv, ticks,
			r.Requests, r.Downloads, r.MeanScore, r.MeanRecency,
			r.FailedDownloads, r.StaleFallbacks, r.ShedRequests, r.ShortCircuits)
		return nil
	})
	if err != nil {
		return err
	}
	res.TicksCSV = []byte(csv.String())
	res.Metrics = reg.Snapshot()
	res.Summary = Summary{
		ID:       res.Config.ID,
		Ticks:    rep.Ticks,
		TickRows: rows,
		Metrics: map[string]float64{
			"requests":         float64(rep.Requests),
			"downloads":        float64(rep.Downloads),
			"shared_copies":    float64(rep.SharedCopies),
			"mean_score":       rep.MeanScore,
			"mean_recency":     rep.MeanRecency,
			"handoffs":         float64(rep.Handoffs),
			"drops":            float64(rep.Drops),
			"reroutes":         float64(rep.Reroutes),
			"lost_requests":    float64(rep.LostRequests),
			"cell_down_ticks":  float64(rep.CellDownTicks),
			"failed_downloads": float64(rep.FailedDownloads),
			"stale_fallbacks":  float64(rep.StaleFallbacks),
			"shed_requests":    float64(rep.ShedRequests),
			"short_circuits":   float64(rep.ShortCircuits),
			"breaker_trips":    float64(rep.BreakerTrips),
			"reports":          float64(rep.InvalidationReports),
			"invalidated":      float64(rep.InvalidatedEntries),
			"purges":           float64(rep.TerminalPurges),
			"push_served":      float64(rep.PushServed),
			"pull_served":      float64(rep.PullServed),
			"push_units":       float64(rep.PushUnits),
		},
	}
	return nil
}

// writeRow appends one ticks.csv data row. Floats render with
// strconv.FormatFloat(-1), the shortest exact representation, so the
// file is a deterministic function of the run.
func writeRow(b *strings.Builder, tick int, requests, downloads uint64, score, recency float64, failed, stale, shed, short uint64) {
	fmt.Fprintf(b, "%d,%d,%d,%s,%s,%d,%d,%d,%d\n",
		tick, requests, downloads,
		strconv.FormatFloat(score, 'g', -1, 64),
		strconv.FormatFloat(recency, 'g', -1, 64),
		failed, stale, shed, short)
}
