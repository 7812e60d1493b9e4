package experiment

import (
	"fmt"

	"mobicache/internal/basestation"
	"mobicache/internal/client"
	"mobicache/internal/fault"
	"mobicache/internal/metrics"
	"mobicache/internal/multicell"
	"mobicache/internal/resilience"
	"mobicache/internal/rng"
	"mobicache/internal/server"
)

// resilienceProfile is one chaos profile of the resilience study: a
// mutation of the baseline multi-cell deployment that injects a specific
// failure shape.
type resilienceProfile struct {
	name   string
	mutate func(*multicell.Config) error
}

// ResilienceStudy runs the chaos profiles — upstream blackout, flapping
// upstream, request overload, and whole-cell death — through a multi-cell
// deployment twice each: raw (retries only) and resilient (circuit
// breaker + admission control), and tabulates what the resilience layer
// trades: failed downloads and retry budget saved against requests shed
// and extra stale serves.
func ResilienceStudy(cells int, seed uint64) (string, error) {
	if cells <= 0 {
		return "", fmt.Errorf("experiment: cells %d must be positive", cells)
	}
	const ticks = 400
	retry := basestation.RetryConfig{MaxAttempts: 3, BaseBackoff: 0.5, MaxBackoff: 4}
	outage := func(w fault.Window) func(int, *server.Server) (basestation.Fetcher, basestation.RetryConfig, error) {
		return func(cell int, srv *server.Server) (basestation.Fetcher, basestation.RetryConfig, error) {
			s, err := fault.NewSchedule(1, seed+uint64(cell)*0x9e3779b97f4a7c15)
			if err != nil {
				return nil, retry, err
			}
			if err := s.AddOutage(0, w); err != nil {
				return nil, retry, err
			}
			fs, err := server.NewFaultyServer(srv, s, nil)
			if err != nil {
				return nil, retry, err
			}
			return fs, retry, nil
		}
	}
	profiles := []resilienceProfile{
		{"blackout", func(cfg *multicell.Config) error {
			cfg.NewFetcher = outage(fault.Window{From: 100, To: 180})
			return nil
		}},
		{"flapping", func(cfg *multicell.Config) error {
			cfg.NewFetcher = outage(fault.Window{From: 50, To: 56, Every: 12})
			return nil
		}},
		{"overload", func(cfg *multicell.Config) error {
			cfg.RequestProb = 0.9
			return nil
		}},
		{"cell-death", func(cfg *multicell.Config) error {
			cs, err := fault.NewCellSchedule(cfg.Cells)
			if err != nil {
				return err
			}
			if err := cs.AddOutage(0, fault.Window{From: 100, To: 250}); err != nil {
				return err
			}
			cfg.CellFaults = cs
			return nil
		}},
	}
	run := func(p resilienceProfile, resilient bool) (multicell.Report, error) {
		cfg := multicell.Config{
			Cells:         cells,
			Objects:       200,
			UpdatePeriod:  5,
			BudgetPerTick: 10,
			Clients:       60 * cells,
			Mobility:      client.Mobility{MeanResidence: 30, PDisconnect: 0.2, MeanAbsence: 15},
			RequestProb:   0.3,
			Pattern:       rng.Zipf,
			Seed:          seed,
		}
		if err := p.mutate(&cfg); err != nil {
			return multicell.Report{}, err
		}
		if resilient {
			cfg.Resilience = &resilience.Config{
				Breaker:   resilience.BreakerConfig{FailureThreshold: 3, OpenTicks: 8},
				Admission: resilience.Admission{MaxRequestsPerTick: 30},
			}
		}
		sys, err := multicell.New(cfg)
		if err != nil {
			return multicell.Report{}, err
		}
		return sys.Run(ticks)
	}
	var rows [][]string
	for _, p := range profiles {
		for _, resilient := range []bool{false, true} {
			rep, err := run(p, resilient)
			if err != nil {
				return "", fmt.Errorf("experiment: resilience profile %s: %w", p.name, err)
			}
			mode := "raw"
			if resilient {
				mode = "resilient"
			}
			offered := rep.Requests + rep.ShedRequests
			shedRate := 0.0
			if offered > 0 {
				shedRate = float64(rep.ShedRequests) / float64(offered)
			}
			rows = append(rows, []string{
				p.name, mode,
				fmt.Sprint(rep.Requests),
				fmt.Sprintf("%.4f", rep.MeanScore),
				fmt.Sprintf("%.4f", rep.MeanRecency),
				fmt.Sprint(rep.FailedDownloads),
				fmt.Sprint(rep.StaleFallbacks),
				fmt.Sprintf("%.3f", shedRate),
				fmt.Sprint(rep.BreakerTrips),
				fmt.Sprint(rep.Reroutes),
			})
		}
	}
	return fmt.Sprintf("# Resilience study (%d cells, %d ticks per run)\n", cells, ticks) +
		metrics.RenderTable([]string{
			"profile", "mode", "requests", "mean score", "mean recency",
			"failed downloads", "stale fallbacks", "shed rate", "breaker trips", "reroutes",
		}, rows), nil
}
