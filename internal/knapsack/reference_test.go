package knapsack

import (
	"math"
	"slices"
	"testing"

	"mobicache/internal/rng"
)

// referenceDP is SolveDP before its rows were pruned: the same
// all-unit-weight fast path (which need not return the set the general
// DP below would; see solveUnit), then every row over every capacity
// 0..c and reconstruction straight from c. SolveDP must reproduce it bit
// for bit.
func referenceDP(items []Item, capacity int64) (Solution, error) {
	if capacity < 0 {
		return Solution{}, ErrNegativeCapacity
	}
	if err := Validate(items); err != nil {
		return Solution{}, err
	}
	c := clampCapacity(items, capacity)
	if unitWeights(items) {
		return NewSolver().solveUnit(items, c), nil
	}
	n := len(items)
	value := make([]float64, c+1)
	words := (c + 1 + 63) / 64
	decisions := make([]uint64, n*words)
	for i, it := range items {
		row := decisions[i*words : (i+1)*words]
		w := int(it.Weight)
		if w <= c {
			for cap := c; cap >= w; cap-- {
				cand := value[cap-w] + it.Profit
				if cand > value[cap] {
					value[cap] = cand
					row[cap/64] |= 1 << (cap % 64)
				}
			}
		}
	}
	sol := Solution{Profit: value[c]}
	remaining := c
	for i := n - 1; i >= 0; i-- {
		if decisions[i*words+remaining/64]&(1<<(remaining%64)) != 0 {
			sol.Take = append(sol.Take, i)
			sol.Weight += items[i].Weight
			remaining -= int(items[i].Weight)
		}
	}
	reverse(sol.Take)
	return sol, nil
}

// sameBits reports whether two solutions have the same Take set, the same
// Profit bits and the same Weight.
func sameBits(a, b Solution) bool {
	return slices.Equal(a.Take, b.Take) && math.Float64bits(a.Profit) == math.Float64bits(b.Profit) && a.Weight == b.Weight
}

// TestPrunedDPMatchesReference compares SolveDP with the unpruned
// reference over random instances built to hit both row bounds: tie-heavy
// integer profits, zero profits, real profits, items heavier than the
// capacity, capacity 0 and capacities at or past the total weight. One
// reused workspace solves every instance, so stale buffers from a larger
// earlier instance would show up too.
func TestPrunedDPMatchesReference(t *testing.T) {
	r := rng.New(0xD1FF)
	s := NewSolver()
	for trial := 0; trial < 4000; trial++ {
		n := r.IntRange(0, 40)
		maxW := []int{3, 20, 200}[trial%3]
		items := make([]Item, n)
		var total int64
		for i := range items {
			items[i].Weight = int64(r.IntRange(1, maxW))
			switch r.IntRange(0, 3) {
			case 0:
				items[i].Profit = 0
			case 1, 2:
				items[i].Profit = float64(r.IntRange(0, 4))
			default:
				items[i].Profit = r.Float64() * 10
			}
			total += items[i].Weight
		}
		var capacity int64
		switch trial % 5 {
		case 0:
			capacity = 0
		case 1:
			capacity = total + int64(r.IntRange(0, 10)) // everything fits
		case 2:
			capacity = int64(r.IntRange(0, maxW)) // many items too heavy
		default:
			capacity = int64(r.IntRange(0, int(total)))
		}
		got, err := s.SolveDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("trial %d: pruned DP (%v, %d, %v) != reference (%v, %d, %v)\nitems %v cap %d",
				trial, got.Profit, got.Weight, got.Take, want.Profit, want.Weight, want.Take, items, capacity)
		}
	}
}
