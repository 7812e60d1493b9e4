package knapsack

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mobicache/internal/rng"
)

func classicItems() []Item {
	return []Item{
		{Weight: 2, Profit: 3},
		{Weight: 3, Profit: 4},
		{Weight: 4, Profit: 5},
		{Weight: 5, Profit: 6},
	}
}

func TestSolveDPClassic(t *testing.T) {
	sol, err := SolveDP(classicItems(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Optimum: items 0 and 1 (weight 5, profit 7).
	if sol.Profit != 7 {
		t.Fatalf("profit = %v, want 7", sol.Profit)
	}
	if sol.Weight != 5 {
		t.Fatalf("weight = %v, want 5", sol.Weight)
	}
	if len(sol.Take) != 2 || sol.Take[0] != 0 || sol.Take[1] != 1 {
		t.Fatalf("take = %v, want [0 1]", sol.Take)
	}
}

func TestSolveDPZeroCapacity(t *testing.T) {
	sol, err := SolveDP(classicItems(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Profit != 0 || len(sol.Take) != 0 {
		t.Fatalf("zero-capacity solution = %+v", sol)
	}
}

func TestSolveDPEmptyItems(t *testing.T) {
	sol, err := SolveDP(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Profit != 0 {
		t.Fatalf("empty instance profit = %v", sol.Profit)
	}
}

func TestSolveDPAllFit(t *testing.T) {
	sol, err := SolveDP(classicItems(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Profit != 18 || sol.Weight != 14 || len(sol.Take) != 4 {
		t.Fatalf("all-fit solution = %+v", sol)
	}
}

func TestErrors(t *testing.T) {
	if _, err := SolveDP(classicItems(), -1); !errors.Is(err, ErrNegativeCapacity) {
		t.Fatalf("negative capacity error = %v", err)
	}
	bad := []Item{{Weight: 0, Profit: 1}}
	if _, err := SolveDP(bad, 5); err == nil {
		t.Fatal("zero-weight item accepted")
	}
	bad = []Item{{Weight: 1, Profit: -1}}
	if _, err := SolveDP(bad, 5); err == nil {
		t.Fatal("negative-profit item accepted")
	}
	bad = []Item{{Weight: 1, Profit: math.NaN()}}
	if _, err := SolveDP(bad, 5); err == nil {
		t.Fatal("NaN-profit item accepted")
	}
	if _, err := TraceDP(bad, 5); err == nil {
		t.Fatal("TraceDP accepted NaN profit")
	}
	if _, err := SolveGreedy(bad, 5); err == nil {
		t.Fatal("SolveGreedy accepted NaN profit")
	}
	if _, err := SolveBB(bad, 5); err == nil {
		t.Fatal("SolveBB accepted NaN profit")
	}
	if _, err := TraceDP(classicItems(), -1); !errors.Is(err, ErrNegativeCapacity) {
		t.Fatal("TraceDP accepted negative capacity")
	}
	if _, err := SolveGreedy(classicItems(), -1); !errors.Is(err, ErrNegativeCapacity) {
		t.Fatal("SolveGreedy accepted negative capacity")
	}
	if _, err := SolveBB(classicItems(), -1); !errors.Is(err, ErrNegativeCapacity) {
		t.Fatal("SolveBB accepted negative capacity")
	}
}

func TestTraceMatchesSolveAtEveryCapacity(t *testing.T) {
	items := randomItems(rng.New(5), 12, 10, 50)
	tr, err := TraceDP(items, 60)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b <= 60; b += 6 {
		sol, err := SolveDP(items, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tr.At(b)-sol.Profit) > 1e-9 {
			t.Fatalf("trace at %d = %v, SolveDP = %v", b, tr.At(b), sol.Profit)
		}
	}
}

func TestTraceMonotone(t *testing.T) {
	items := randomItems(rng.New(7), 30, 20, 100)
	tr, err := TraceDP(items, 300)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b < len(tr.Value); b++ {
		if tr.Value[b] < tr.Value[b-1] {
			t.Fatalf("trace decreased at budget %d: %v < %v", b, tr.Value[b], tr.Value[b-1])
		}
	}
	if tr.Capacity() != 300 {
		t.Fatalf("Capacity = %d", tr.Capacity())
	}
}

func TestTraceAtAndMarginal(t *testing.T) {
	tr := &Trace{Value: []float64{0, 1, 3, 3}}
	if tr.At(-5) != 0 || tr.At(10) != 3 || tr.At(2) != 3 {
		t.Fatalf("At clamping wrong: %v %v %v", tr.At(-5), tr.At(10), tr.At(2))
	}
	if tr.Marginal(2) != 2 {
		t.Fatalf("Marginal(2) = %v, want 2", tr.Marginal(2))
	}
	if tr.Marginal(0) != 0 || tr.Marginal(99) != 0 {
		t.Fatal("out-of-range marginal != 0")
	}
}

func TestDPMatchesBranchAndBound(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		items := randomItems(r, 14, 10, 40)
		cap := int64(r.IntRange(0, 80))
		dp, err := SolveDP(items, cap)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := SolveBB(items, cap)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Profit-bb.Profit) > 1e-9 {
			t.Fatalf("trial %d: DP profit %v != B&B profit %v (cap %d)", trial, dp.Profit, bb.Profit, cap)
		}
	}
}

func TestDPMatchesBruteForce(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 25; trial++ {
		items := randomItems(r, 10, 8, 30)
		cap := int64(r.IntRange(0, 60))
		dp, err := SolveDP(items, cap)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(items, cap)
		if math.Abs(dp.Profit-want) > 1e-9 {
			t.Fatalf("trial %d: DP %v != brute force %v", trial, dp.Profit, want)
		}
	}
}

func bruteForce(items []Item, capacity int64) float64 {
	best := 0.0
	for mask := 0; mask < 1<<len(items); mask++ {
		var w int64
		var p float64
		for i := range items {
			if mask&(1<<i) != 0 {
				w += items[i].Weight
				p += items[i].Profit
			}
		}
		if w <= capacity && p > best {
			best = p
		}
	}
	return best
}

func TestSolutionFeasibilityProperty(t *testing.T) {
	// Property: every solver returns a feasible solution whose reported
	// profit/weight match its Take set, and DP >= greedy >= DP/2.
	f := func(seed uint64, nRaw, capRaw uint16) bool {
		r := rng.New(seed)
		n := int(nRaw%20) + 1
		cap := int64(capRaw % 200)
		items := randomItems(r, n, 10, 30)
		dp, err := SolveDP(items, cap)
		if err != nil || !feasible(items, dp, cap) {
			return false
		}
		gr, err := SolveGreedy(items, cap)
		if err != nil || !feasible(items, gr, cap) {
			return false
		}
		if gr.Profit > dp.Profit+1e-9 {
			return false
		}
		// Greedy's 1/2 guarantee.
		if gr.Profit < 0.5*dp.Profit-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func feasible(items []Item, sol Solution, capacity int64) bool {
	var w int64
	var p float64
	seen := make(map[int]bool)
	for _, i := range sol.Take {
		if i < 0 || i >= len(items) || seen[i] {
			return false
		}
		seen[i] = true
		w += items[i].Weight
		p += items[i].Profit
	}
	return w <= capacity && w == sol.Weight && math.Abs(p-sol.Profit) < 1e-9
}

func TestGreedyFallsBackToBestSingle(t *testing.T) {
	// Density order would pick the small item first and then nothing else
	// fits; the single large item is better.
	items := []Item{
		{Weight: 1, Profit: 2},   // density 2
		{Weight: 10, Profit: 10}, // density 1
	}
	sol, err := SolveGreedy(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Profit != 10 || len(sol.Take) != 1 || sol.Take[0] != 1 {
		t.Fatalf("greedy fallback solution = %+v", sol)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(classicItems()); err != nil {
		t.Fatalf("valid items rejected: %v", err)
	}
	if err := Validate([]Item{{Weight: 1, Profit: math.Inf(1)}}); err == nil {
		t.Fatal("infinite profit accepted")
	}
}

func TestDensityOrderDeterministicTies(t *testing.T) {
	items := []Item{{Weight: 2, Profit: 2}, {Weight: 3, Profit: 3}, {Weight: 1, Profit: 1}}
	order := densityOrder(items)
	// All densities equal: stable order preserves index order.
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("tie order = %v, want [0 1 2]", order)
	}
}

func randomItems(r *rng.Source, n int, maxW int64, maxP float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Weight: int64(r.IntRange(1, int(maxW))),
			Profit: r.FloatRange(0, maxP),
		}
	}
	return items
}
