package knapsack

import (
	"math"
	"testing"

	"mobicache/internal/rng"
)

// randomInstance draws a small random instance: n <= 16 items, mixed
// integer weights, real profits (including occasional zero-profit and
// over-capacity items), and a capacity anywhere from 0 to just past the
// total weight.
func randomInstance(r *rng.Source) ([]Item, int64) {
	n := r.IntRange(0, 16)
	items := make([]Item, n)
	var total int64
	for i := range items {
		items[i] = Item{Weight: int64(r.IntRange(1, 20)), Profit: float64(r.IntRange(0, 1000)) / 100}
		total += items[i].Weight
	}
	capacity := int64(r.IntRange(0, int(total)+5))
	return items, capacity
}

// TestSolversMatchBruteForceProperty drives ~200 random instances and
// checks, against exhaustive enumeration: SolveDP is exactly optimal,
// SolveBB agrees with it, and SolveGreedy achieves at least half the
// optimum (its approximation guarantee). Every solution must also respect
// the capacity and report a profit/weight consistent with its Take set.
func TestSolversMatchBruteForceProperty(t *testing.T) {
	const tol = 1e-9
	r := rng.New(0xA11CE)
	solver := NewSolver()
	for trial := 0; trial < 200; trial++ {
		items, capacity := randomInstance(r)
		opt := bruteForce(items, capacity)

		check := func(name string, sol Solution, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("trial %d %s: %v (items %v cap %d)", trial, name, err, items, capacity)
			}
			if sol.Weight > capacity {
				t.Fatalf("trial %d %s: weight %d exceeds capacity %d", trial, name, sol.Weight, capacity)
			}
			var weight int64
			profit := 0.0
			prev := -1
			for _, i := range sol.Take {
				if i <= prev || i >= len(items) {
					t.Fatalf("trial %d %s: take %v not strictly ascending in range", trial, name, sol.Take)
				}
				prev = i
				weight += items[i].Weight
				profit += items[i].Profit
			}
			if weight != sol.Weight || math.Abs(profit-sol.Profit) > tol {
				t.Fatalf("trial %d %s: reported (%v, %d) != recomputed (%v, %d)", trial, name, sol.Profit, sol.Weight, profit, weight)
			}
			if sol.Profit > opt+tol {
				t.Fatalf("trial %d %s: profit %v beats the optimum %v", trial, name, sol.Profit, opt)
			}
		}

		dp, err := solver.SolveDP(items, capacity)
		check("dp", dp, err)
		if math.Abs(dp.Profit-opt) > tol {
			t.Fatalf("trial %d: DP profit %v != brute-force optimum %v (items %v cap %d)", trial, dp.Profit, opt, items, capacity)
		}

		bb, err := SolveBB(items, capacity)
		check("bb", bb, err)
		if math.Abs(bb.Profit-opt) > tol {
			t.Fatalf("trial %d: BB profit %v != optimum %v", trial, bb.Profit, opt)
		}

		greedy, err := solver.SolveGreedy(items, capacity)
		check("greedy", greedy, err)
		if greedy.Profit < opt/2-tol {
			t.Fatalf("trial %d: greedy profit %v below half the optimum %v (items %v cap %d)", trial, greedy.Profit, opt, items, capacity)
		}
	}
}

// TestUnitFastPathMatchesGeneralDPProperty checks that on
// all-unit-weight instances with profits in hundredths the fast path
// reaches the general DP's profit exactly. The general path is forced by
// a shadow instance with every weight and the capacity doubled. Only the
// profits are compared: the two may pick different sets of equal profit
// (see solveUnit).
func TestUnitFastPathMatchesGeneralDPProperty(t *testing.T) {
	r := rng.New(0xBEEF)
	solver := NewSolver()
	for trial := 0; trial < 200; trial++ {
		n := r.IntRange(1, 16)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: 1, Profit: float64(r.IntRange(0, 500)) / 100}
		}
		capacity := int64(r.IntRange(0, n+2))
		fast, err := solver.SolveDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		// Shadow instance scaled x2 with capacity x2 takes the general
		// DP path and must reach the same profit.
		scaled := make([]Item, n)
		for i, it := range items {
			scaled[i] = Item{Weight: 2, Profit: it.Profit}
		}
		general, err := SolveDP(scaled, 2*capacity)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Profit != general.Profit {
			t.Fatalf("trial %d: unit fast path profit %v != general DP %v (items %v cap %d)", trial, fast.Profit, general.Profit, items, capacity)
		}
	}
}
