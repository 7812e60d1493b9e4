// Package rng provides the deterministic random-number machinery that
// drives every synthetic workload in this repository.
//
// All experiments in the paper are analytical or simulation-based, so
// reproducibility hinges on the generator: the package implements
// splitmix64 (for seeding and stream splitting) and xoshiro256** (for the
// main stream), plus the discrete and continuous distributions the paper's
// workloads need (uniform, zipf, linearly skewed popularity, Poisson,
// normal), an O(1) alias-method sampler for arbitrary discrete
// distributions, and rank-correlation induction used to build the
// positively/negatively/uncorrelated parameter sets of Table 1.
//
// The zero value of Source is not usable; construct one with New.
package rng

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source based on xoshiro256**.
// It is intentionally not safe for concurrent use: simulations own one
// Source per logical stream and split substreams with Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby
// seeds produce unrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitmix64(sm)
	}
	// xoshiro256** must not start from the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// r's. It consumes one value from r.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Streams derives n mutually independent Sources from one seed by walking
// a splitmix64 chain: stream i is seeded from the i-th splitmix64 output
// of seed, so it depends only on (seed, i) — never on how many sibling
// streams exist or in what order they are consumed. The multi-cell tick
// engine keys one stream per cell this way, so a cell's requests never
// depend on its siblings. It panics if n is negative.
func Streams(seed uint64, n int) []*Source {
	if n < 0 {
		panic(fmt.Sprintf("rng: Streams called with n = %d", n))
	}
	out := make([]*Source, n)
	state := seed
	for i := range out {
		var sub uint64
		state, sub = splitmix64(state)
		out[i] = New(sub)
	}
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n = %d", n))
	}
	return int(r.boundedUint64(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method (no modulo bias).
func (r *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntRange called with lo = %d > hi = %d", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

// FloatRange returns a uniform float64 in [lo, hi).
func (r *Source) FloatRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Poisson returns a Poisson-distributed count with the given mean, using
// inversion for small means and the PTRS transformed-rejection method's
// normal approximation fallback for large ones.
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth inversion.
		limit := math.Exp(-mean)
		p := 1.0
		k := 0
		for {
			p *= r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction; adequate for the
	// workload-generation purposes of this repository.
	n := r.Norm()*math.Sqrt(mean) + mean + 0.5
	if n < 0 {
		return 0
	}
	return int(n)
}

// Norm returns a standard normal variate (Box–Muller).
func (r *Source) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// ErrEmptyWeights is returned by samplers constructed from an empty or
// all-zero weight vector.
var ErrEmptyWeights = errors.New("rng: weight vector is empty or sums to zero")
