// Package mobicache is a library for efficient remote data access in
// mobile computing environments, reproducing Bright & Raschid, "Efficient
// Remote Data Access in a Mobile Computing Environment" (ICPP 2000
// Workshop on Pervasive Computing).
//
// A base station caches objects fetched from remote servers over a
// bandwidth-constrained fixed network and serves mobile clients over a
// wireless downlink. Cached copies go stale as the remote masters are
// updated; each client states a target recency, and the base station must
// decide — per batch of requests and per download budget — which objects
// to fetch remotely and which to serve from the cache so that the mean
// client recency score is maximized. The problem maps to a 0/1 knapsack
// (object size = weight, summed client benefit = profit); this package
// exposes the paper's dynamic-programming selection, the approximate
// solvers, the budget recommendation derived from the DP's
// score-versus-budget trace, and a complete tick simulation of the
// architecture for experimentation.
//
// # Quick start
//
//	sel, err := mobicache.NewSelector([]int64{3, 1, 4, 1, 5})
//	if err != nil { ... }
//	reqs := []mobicache.Request{
//		{Client: 0, Object: 2, Target: 1.0},
//		{Client: 1, Object: 4, Target: 0.5},
//	}
//	// recencies[i] is the cached copy's recency score (0 = not cached).
//	plan, err := sel.Select(reqs, []float64{1, 1, 0.25, 1, 0}, 6)
//	// plan.Download lists the objects to fetch; plan.AverageScore() is
//	// the resulting mean client score.
//
// The Example functions in example_test.go show the facade at work, and
// the programs under cmd/ regenerate every table and figure of the paper.
package mobicache

import (
	"fmt"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/recency"
)

// ObjectID identifies an object in the catalog (dense, 0-based).
type ObjectID = catalog.ID

// Request is one client's request for one object with a target recency in
// (0, 1]: 1.0 demands the most recent data, lower values accept staler
// copies.
type Request = client.Request

// Plan is a download decision: which objects to fetch remotely, which to
// serve from cache, and the resulting client scores.
type Plan = core.Plan

// BoundReport is the outcome of a budget recommendation.
type BoundReport = core.BoundReport

// BoundConfig tunes RecommendBudget.
type BoundConfig = core.BoundConfig

// ScoreFunc maps (cached recency, client target) to a client score.
type ScoreFunc = recency.ScoreFunc

// The paper's two scoring functions, plus the identity used by the
// solution-space analysis.
var (
	InverseScore     ScoreFunc = recency.Inverse
	ExponentialScore ScoreFunc = recency.Exponential
	IdentityScore    ScoreFunc = recency.Identity
)

// Unlimited is the budget value meaning "no limit on downloaded data".
const Unlimited = core.Unlimited

// Option customizes a Selector.
type Option func(*core.Config) error

// WithScore sets the scoring function (default InverseScore).
func WithScore(f ScoreFunc) Option {
	return func(c *core.Config) error {
		if f == nil {
			return fmt.Errorf("mobicache: nil score function")
		}
		c.Score = f
		return nil
	}
}

// WithSolver selects the knapsack solver: "dp" (exact, default), "greedy"
// (fast 1/2-approximation), "incremental" (exact warm-start solving that
// diffs each call against the previous one), or "certified" (warm-start
// with an approximate first pass accepted only when provably within
// 1-eps of optimal).
func WithSolver(name string) Option {
	return func(c *core.Config) error {
		kind, err := core.ParseSolver(name)
		if err != nil {
			return err
		}
		c.Solver = kind
		return nil
	}
}

// Selector decides which objects a base station should download for a
// batch of client requests.
//
// A Selector owns a reusable solver workspace: at steady state Select
// allocates nothing, but the slices inside a returned Plan alias that
// workspace and are valid only until the selector's next call, and a
// Selector must not be used from multiple goroutines at once. Servers
// handling concurrent requests should give each goroutine its own
// selector via Clone (cheap: the catalog and configuration are shared).
type Selector struct {
	cat   *catalog.Catalog
	inner *core.Selector
	view  recencyView
}

// NewSelector creates a selector over a catalog of len(sizes) objects
// whose sizes (in data units) are given; object i has ObjectID i.
func NewSelector(sizes []int64, opts ...Option) (*Selector, error) {
	cat, err := catalog.New(sizes)
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	inner, err := core.NewSelector(cat, cfg)
	if err != nil {
		return nil, err
	}
	return &Selector{cat: cat, inner: inner}, nil
}

// NumObjects returns the catalog size.
func (s *Selector) NumObjects() int { return s.cat.Len() }

// Solver reports the configured knapsack solver's name ("dp", "greedy",
// "incremental", or "certified"). Clones answer for the
// selector they were cloned from, so a server can verify that pooled
// workers match its live configuration.
func (s *Selector) Solver() string { return s.inner.Solver().String() }

// TotalSize returns the summed size of all objects.
func (s *Selector) TotalSize() int64 { return s.cat.TotalSize() }

// Clone returns a selector sharing this selector's catalog and
// configuration but owning a fresh workspace, so each goroutine of a
// concurrent server can select independently (e.g. via a sync.Pool).
func (s *Selector) Clone() *Selector {
	return &Selector{cat: s.cat, inner: s.inner.Clone()}
}

// recencyView adapts a per-object recency slice to core.CacheView:
// r[i] is object i's cached recency score, 0 meaning not cached. It is
// embedded in the Selector and passed by pointer so the per-call
// interface conversion does not allocate.
type recencyView struct {
	r []float64
}

func (v *recencyView) Recency(id catalog.ID) float64 {
	if int(id) >= len(v.r) || v.r[id] <= 0 {
		return 0
	}
	return v.r[id]
}

func (v *recencyView) Contains(id catalog.ID) bool {
	return int(id) < len(v.r) && v.r[id] > 0
}

func (s *Selector) setView(recencies []float64) error {
	if len(recencies) != s.cat.Len() {
		return fmt.Errorf("mobicache: %d recency values for %d objects", len(recencies), s.cat.Len())
	}
	for i, r := range recencies {
		if r < 0 || r > 1 {
			return fmt.Errorf("mobicache: recency[%d] = %v out of [0,1]", i, r)
		}
	}
	s.view.r = recencies
	return nil
}

// Select decides which objects to download for the given requests.
// recencies[i] is object i's cached recency score (0 = not cached; such
// objects must be downloaded to be served). budget caps the total size of
// the Download set; pass Unlimited for no cap. The returned plan's slices
// are valid until the selector's next call.
func (s *Selector) Select(reqs []Request, recencies []float64, budget int64) (Plan, error) {
	if err := s.setView(recencies); err != nil {
		return Plan{}, err
	}
	return s.inner.SelectRequests(reqs, &s.view, budget)
}

// RecommendBudget implements the paper's future-work extension: it traces
// the exact score-versus-budget curve up to maxBudget and recommends the
// smallest budget at which further downloading is not worthwhile under
// cfg's rules (see BoundConfig).
func (s *Selector) RecommendBudget(reqs []Request, recencies []float64, maxBudget int64, cfg BoundConfig) (BoundReport, error) {
	if err := s.setView(recencies); err != nil {
		return BoundReport{}, err
	}
	return s.inner.UpperBound(s.inner.AggregateRequests(reqs), &s.view, maxBudget, cfg)
}
