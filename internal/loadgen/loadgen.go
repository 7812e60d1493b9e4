// Package loadgen generates deterministic zipf-distributed request
// streams for driving live stations, and computes exact nearest-rank
// latency percentiles. The benchmark (bench/) and stationd's fleet test
// draw their load from Stream. A stream is fully deterministic for a
// given seed, so a load run can be replayed bit-for-bit; Percentile ranks
// every recorded sample instead of approximating with a sketch, which
// removes one source of cross-run noise from archived numbers.
package loadgen

import (
	"fmt"
	"math"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/rng"
)

// StreamConfig configures a deterministic request stream.
type StreamConfig struct {
	// Objects is the catalog size; requests draw objects in [0, Objects).
	Objects int
	// ZipfS is the zipf skew exponent (0 = uniform popularity).
	ZipfS float64
	// Clients is the number of distinct client IDs to round-robin over
	// (0 = 1).
	Clients int
	// TargetLo and TargetHi bound the uniform target-recency draw. Both
	// zero means every request demands target 1.0.
	TargetLo, TargetHi float64
	// Seed seeds the stream's private RNG.
	Seed uint64
}

// Stream produces a deterministic sequence of requests: zipf-popular
// objects, uniform target recencies, round-robin client IDs.
type Stream struct {
	alias   *rng.Alias
	src     *rng.Source
	clients int
	lo, hi  float64
	n       uint64
}

// NewStream validates the config and builds the alias table.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive object count, got %d", cfg.Objects)
	}
	if cfg.ZipfS < 0 {
		return nil, fmt.Errorf("loadgen: negative zipf skew %v", cfg.ZipfS)
	}
	if cfg.TargetLo < 0 || cfg.TargetHi > 1 || cfg.TargetLo > cfg.TargetHi {
		return nil, fmt.Errorf("loadgen: target range [%v, %v] outside [0, 1]", cfg.TargetLo, cfg.TargetHi)
	}
	alias, err := rng.NewAlias(rng.ZipfWeights(cfg.Objects, cfg.ZipfS))
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 1
	}
	lo, hi := cfg.TargetLo, cfg.TargetHi
	if lo == 0 && hi == 0 {
		lo, hi = 1, 1
	}
	return &Stream{
		alias:   alias,
		src:     rng.New(cfg.Seed),
		clients: clients,
		lo:      lo,
		hi:      hi,
	}, nil
}

// Next returns the stream's next request. Not safe for concurrent use;
// give each worker its own Stream (vary Seed) or serialize draws.
func (s *Stream) Next() client.Request {
	target := s.lo
	if s.hi > s.lo {
		target = s.lo + (s.hi-s.lo)*s.src.Float64()
	}
	r := client.Request{
		Client: int(s.n % uint64(s.clients)),
		Object: catalog.ID(s.alias.Sample(s.src)),
		Target: target,
	}
	s.n++
	return r
}

// Percentile returns the exact nearest-rank percentile of sorted (which
// MUST be ascending): the smallest sample such that at least q·N samples
// are ≤ it, i.e. rank ⌈q·N⌉ (1-based), clamped to the ends. By
// convention q=0 returns the minimum. NaN on an empty slice.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
