// Package client models the mobile clients of the paper's architecture:
// request generation against a popularity distribution, per-client target
// recency preferences, and a simple mobility model (cell residence and
// disconnection) for the multi-cell simulation.
package client

import (
	"fmt"

	"mobicache/internal/catalog"
	"mobicache/internal/rng"
)

// Request is one client's request for one object, carrying the client's
// target recency C (paper Section 2). Target 1.0 demands the most recent
// data; lower targets accept staler copies.
type Request struct {
	Client int        `json:"client"`
	Object catalog.ID `json:"object"`
	Target float64    `json:"target"`
	Tick   int        `json:"tick"`
}

// TargetDist draws clients' target recency values.
type TargetDist interface {
	Sample(src *rng.Source) float64
}

// AlwaysFresh demands target recency 1.0 from every client.
type AlwaysFresh struct{}

// Sample implements TargetDist.
func (AlwaysFresh) Sample(*rng.Source) float64 { return 1 }

// UniformTargets draws targets uniformly from [Lo, Hi).
type UniformTargets struct {
	Lo, Hi float64
}

// Sample implements TargetDist.
func (u UniformTargets) Sample(src *rng.Source) float64 {
	return src.FloatRange(u.Lo, u.Hi)
}

// FixedTarget demands the same target recency from every client.
type FixedTarget float64

// Sample implements TargetDist.
func (f FixedTarget) Sample(*rng.Source) float64 { return float64(f) }

// Generator produces the per-tick request batches of the paper's Section 3
// experiments: a fixed number of requests per time unit, objects drawn
// from a popularity distribution over the catalog.
type Generator struct {
	src     *rng.Source
	sampler *rng.Alias
	rank    []catalog.ID // popularity rank -> object ID
	rate    int
	targets TargetDist
	next    int // next client serial number
	buf     []Request
}

// GeneratorConfig configures a Generator.
type GeneratorConfig struct {
	Catalog *catalog.Catalog
	// Pattern is the access skew (uniform / linear / zipf).
	Pattern rng.Popularity
	// RatePerTick is the number of requests per time unit.
	RatePerTick int
	// Targets draws per-request target recency; nil means AlwaysFresh.
	Targets TargetDist
	// ShuffleRanks randomizes which object gets which popularity rank
	// (otherwise object 0 is the most popular).
	ShuffleRanks bool
	// Seed seeds the generator's private random stream.
	Seed uint64
}

// NewGenerator builds a request generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("client: nil catalog")
	}
	if cfg.RatePerTick < 0 {
		return nil, fmt.Errorf("client: negative request rate %d", cfg.RatePerTick)
	}
	src := rng.New(cfg.Seed)
	g := &Generator{
		src:     src,
		sampler: cfg.Pattern.NewSampler(cfg.Catalog.Len()),
		rate:    cfg.RatePerTick,
		targets: cfg.Targets,
	}
	if g.targets == nil {
		g.targets = AlwaysFresh{}
	}
	g.rank = cfg.Catalog.IDs()
	if cfg.ShuffleRanks {
		src.Shuffle(len(g.rank), func(i, j int) { g.rank[i], g.rank[j] = g.rank[j], g.rank[i] })
	}
	return g, nil
}

// Tick returns this tick's batch of requests. The returned slice is valid
// until the next Tick.
func (g *Generator) Tick(tick int) []Request {
	g.buf = g.buf[:0]
	for i := 0; i < g.rate; i++ {
		g.buf = append(g.buf, Request{
			Client: g.next,
			Object: g.rank[g.sampler.Sample(g.src)],
			Target: g.targets.Sample(g.src),
			Tick:   tick,
		})
		g.next++
	}
	return g.buf
}

// Rate returns the configured requests per tick.
func (g *Generator) Rate() int { return g.rate }
