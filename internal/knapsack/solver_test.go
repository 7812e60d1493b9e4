package knapsack

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randItems draws n items; tieHeavy restricts weights and profits to tiny
// value sets so density and profit ties are common.
func randItems(r *rand.Rand, n int, tieHeavy bool) []Item {
	items := make([]Item, n)
	for i := range items {
		if tieHeavy {
			items[i] = Item{Weight: int64(r.Intn(3) + 1), Profit: float64(r.Intn(4))}
		} else {
			items[i] = Item{Weight: int64(r.Intn(20) + 1), Profit: r.Float64() * 10}
		}
	}
	return items
}

func sameSolution(a, b Solution) bool {
	if a.Profit != b.Profit || a.Weight != b.Weight || len(a.Take) != len(b.Take) {
		return false
	}
	for i := range a.Take {
		if a.Take[i] != b.Take[i] {
			return false
		}
	}
	return true
}

// TestSolverReuseMatchesPackage runs a mixed sequence of calls on one
// reused Solver workspace and checks each result against the package-level
// function (which uses a fresh workspace): buffer reuse across instances
// of varying shapes and sizes must never change an answer.
func TestSolverReuseMatchesPackage(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var s Solver
	for round := 0; round < 30; round++ {
		items := randItems(r, r.Intn(60)+1, round%3 == 0)
		capacity := int64(r.Intn(100))

		got, err := s.SolveDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(got, want) {
			t.Fatalf("round %d: SolveDP workspace %+v != fresh %+v", round, got, want)
		}

		gotTr, err := s.TraceDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		wantTr, err := TraceDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if gotTr.Capacity() != wantTr.Capacity() || len(gotTr.Value) != len(wantTr.Value) {
			t.Fatalf("round %d: trace shape mismatch", round)
		}
		for b := range gotTr.Value {
			if gotTr.Value[b] != wantTr.Value[b] {
				t.Fatalf("round %d: trace[%d] = %v, want %v", round, b, gotTr.Value[b], wantTr.Value[b])
			}
		}

		gotG, err := s.SolveGreedy(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		wantG, err := SolveGreedy(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(gotG, wantG) {
			t.Fatalf("round %d: SolveGreedy workspace %+v != fresh %+v", round, gotG, wantG)
		}
	}
}

// TestSolveDPCapacityNearUnlimited is the regression test for the
// unchecked int(capacity) casts: a budget of math.MaxInt64 (core.Unlimited)
// must clamp to the total item weight instead of overflowing or trying to
// materialize an enormous DP table.
func TestSolveDPCapacityNearUnlimited(t *testing.T) {
	items := []Item{{Weight: 7, Profit: 3}, {Weight: 11, Profit: 5}, {Weight: 2, Profit: 1}}
	for _, capacity := range []int64{math.MaxInt64, math.MaxInt64 - 1, 1 << 40} {
		sol, err := SolveDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Take) != len(items) || sol.Profit != 9 || sol.Weight != 20 {
			t.Fatalf("capacity %d: got %+v, want everything taken", capacity, sol)
		}
		tr, err := TraceDP(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Value) != 21 {
			t.Fatalf("capacity %d: trace materialized %d entries, want 21", capacity, len(tr.Value))
		}
		if tr.Capacity() != capacity {
			t.Fatalf("capacity %d: Capacity() = %d", capacity, tr.Capacity())
		}
		if tr.At(capacity-1) != 9 || tr.Marginal(1000) != 0 {
			t.Fatalf("capacity %d: flat tail broken: At=%v Marginal=%v",
				capacity, tr.At(capacity-1), tr.Marginal(1000))
		}
	}
}

// TestTraceClampedTail pins the trace table clamping semantics: the table
// stops at the total item weight, but At/Marginal/Capacity still answer
// for the full requested range.
func TestTraceClampedTail(t *testing.T) {
	items := []Item{{Weight: 30, Profit: 2}, {Weight: 20, Profit: 4}}
	tr, err := TraceDP(items, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Value) != 51 {
		t.Fatalf("materialized %d entries, want 51", len(tr.Value))
	}
	if tr.Capacity() != 10000 {
		t.Fatalf("Capacity() = %d, want 10000", tr.Capacity())
	}
	if tr.At(9999) != tr.At(50) || tr.At(9999) != 6 {
		t.Fatalf("flat tail: At(9999) = %v, At(50) = %v", tr.At(9999), tr.At(50))
	}
	if tr.Marginal(60) != 0 {
		t.Fatalf("Marginal(60) = %v beyond the table, want 0", tr.Marginal(60))
	}
	if tr.Marginal(50) != tr.Value[50]-tr.Value[49] {
		t.Fatalf("Marginal(50) = %v", tr.Marginal(50))
	}
}

// TestUnitFastPathMatchesDP compares the all-unit-weight O(n log n) fast
// path with the general dynamic program on instances where the two agree
// bit for bit: small integer profits, whose sums are exact, and random
// reals, which almost never tie. (Where float rounding decides between
// equal-profit sets they need not agree; TestUnitFastPathContract pins
// what the fast path returns there.) Appending one zero-profit weight-2
// dummy item disables the fast path without changing the optimum (the
// strict-improvement DP never takes a zero-profit item), so both code
// paths solve the same instance.
func TestUnitFastPathMatchesDP(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := r.Intn(40) + 1
		unit := make([]Item, n)
		for i := range unit {
			if round%2 == 0 {
				// Tie-heavy: profits drawn from a 3-value set.
				unit[i] = Item{Weight: 1, Profit: float64(r.Intn(3))}
			} else {
				unit[i] = Item{Weight: 1, Profit: r.Float64()}
			}
		}
		capacity := int64(r.Intn(n + 2))

		fast, err := SolveDP(unit, capacity)
		if err != nil {
			t.Fatal(err)
		}
		general, err := SolveDP(append(append([]Item(nil), unit...), Item{Weight: 2, Profit: 0}), capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(fast, general) {
			t.Fatalf("round %d (n=%d, c=%d): fast path %+v != DP %+v",
				round, n, capacity, fast, general)
		}

		// The trace's endpoint must agree bit for bit as well: Figures 2/3
		// depend on the fast path and Figures 4-6 on the trace.
		tr, err := TraceDP(unit, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if tr.At(capacity) != fast.Profit {
			t.Fatalf("round %d: trace endpoint %v != fast-path profit %v",
				round, tr.At(capacity), fast.Profit)
		}
	}
}

// TestUnitFastPathContract pins what the all-unit-weight fast path
// returns: the top min(c, #positive) items ranked by (profit desc, index
// asc), with Profit summed in index order. That is a maximum-profit set,
// so the general DP (forced by a zero-profit weight-2 dummy item) reaches
// the same Profit bits, but it breaks ties by float rounding and returns
// another set on each of these instances: a profit that vanishes in the
// running sum, a second such pair at capacity 24, and 17 requests
// captured from the archived run dp_zipf_b8_c1_default_ideal_s1.
func TestUnitFastPathContract(t *testing.T) {
	const a, b = 0.33333333333333337, 0.66666666666666674
	cases := []struct {
		profits     []float64
		capacity    int64
		generalTake []int
	}{
		{[]float64{1, 1e-17}, 5, []int{0}},
		{[]float64{1.398043286095289e-76, 1.207373746603704e-153}, 24, []int{0}},
		{[]float64{a, a, 1, b, a, 1, a, a, a, a, a, 1, b, a, b, 1, a}, 8, []int{2, 3, 5, 6, 11, 12, 14, 15}},
	}
	for i, tc := range cases {
		items := make([]Item, len(tc.profits))
		for j, p := range tc.profits {
			items[j] = Item{Weight: 1, Profit: p}
		}
		// The contract, computed independently of solveUnit.
		rank := make([]int, len(items))
		for j := range rank {
			rank[j] = j
		}
		sort.SliceStable(rank, func(x, y int) bool { return tc.profits[rank[x]] > tc.profits[rank[y]] })
		k := min(int(tc.capacity), len(rank))
		for k > 0 && tc.profits[rank[k-1]] <= 0 {
			k--
		}
		want := Solution{Take: append([]int(nil), rank[:k]...), Weight: int64(k)}
		sort.Ints(want.Take)
		for _, j := range want.Take {
			want.Profit += tc.profits[j]
		}

		fast, err := SolveDP(items, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(fast, want) {
			t.Fatalf("case %d: fast path %+v, want %+v", i, fast, want)
		}
		general, err := SolveDP(append(append([]Item(nil), items...), Item{Weight: 2, Profit: 0}), tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(general.Profit) != math.Float64bits(fast.Profit) {
			t.Fatalf("case %d: general DP profit %v, fast path %v", i, general.Profit, fast.Profit)
		}
		if !slices.Equal(general.Take, tc.generalTake) {
			t.Fatalf("case %d: general DP took %v, want %v", i, general.Take, tc.generalTake)
		}
	}
}

// TestGreedyDeterministicTies pins the density sort's explicit secondary
// index key: with every density equal, the greedy must take the lowest
// indexes, identically on every call and on both API forms.
func TestGreedyDeterministicTies(t *testing.T) {
	// 12 items, all density 2.0, in three weight classes.
	items := make([]Item, 12)
	for i := range items {
		w := int64(i%3 + 1)
		items[i] = Item{Weight: w, Profit: float64(2 * w)}
	}
	want, err := SolveGreedy(items, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range want.Take {
		if idx != i {
			t.Fatalf("tie-break not by ascending index: Take = %v", want.Take)
		}
	}
	var s Solver
	for round := 0; round < 10; round++ {
		got, err := s.SolveGreedy(items, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(got, want) {
			t.Fatalf("round %d: %+v != first call %+v", round, got, want)
		}
	}
}

// TestSolverSteadyStateAllocs locks in the tentpole guarantee: once a
// Solver's buffers are warm, repeated solves and traces on same-scale
// instances allocate nothing.
func TestSolverSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	items := randItems(r, 200, false)
	var s Solver
	if _, err := s.SolveDP(items, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TraceDP(items, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveGreedy(items, 1000); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.SolveDP(items, 1000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state SolveDP: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.TraceDP(items, 1000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state TraceDP: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.SolveGreedy(items, 1000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state SolveGreedy: %v allocs/op, want 0", allocs)
	}
}

// TestTraceSurvivesSolves pins the documented lifetime split: a trace is
// invalidated only by the next TraceDP, not by intervening Solve* calls on
// the same workspace (UpperBound followed by Select relies on this).
func TestTraceSurvivesSolves(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := randItems(r, 50, false)
	var s Solver
	tr, err := s.TraceDP(items, 300)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), tr.Value...)
	if _, err := s.SolveDP(items, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveGreedy(items, 200); err != nil {
		t.Fatal(err)
	}
	for b, v := range tr.Value {
		if v != snapshot[b] {
			t.Fatalf("trace[%d] changed from %v to %v after Solve* calls", b, snapshot[b], v)
		}
	}
}
