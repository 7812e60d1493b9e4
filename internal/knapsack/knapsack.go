// Package knapsack implements the 0/1 knapsack solvers the paper's
// on-demand download selection reduces to (Section 2): an exact dynamic
// program that also yields the full best-value-per-capacity trace the
// Section 4 solution-space analysis plots, a density-greedy heuristic,
// and a depth-first branch-and-bound solver. Item weights are integral
// "units of data";
// profits are real-valued client benefits.
//
// The solvers come in two forms: the package-level functions, which
// allocate fresh working memory per call, and the methods on Solver, a
// reusable workspace whose buffers persist across calls so the per-tick
// hot path is allocation-free at steady state.
package knapsack

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Item is one candidate object: Weight is its size in data units and
// Profit the total benefit of downloading it.
type Item struct {
	Weight int64
	Profit float64
}

// Solution is the outcome of a solve: the chosen item indexes (ascending),
// their total profit, and their total weight.
type Solution struct {
	Take   []int
	Profit float64
	Weight int64
}

// Validate checks items for solver preconditions: positive weights and
// non-negative, finite profits.
func Validate(items []Item) error {
	for i, it := range items {
		if it.Weight <= 0 {
			return fmt.Errorf("knapsack: item %d has non-positive weight %d", i, it.Weight)
		}
		if it.Profit < 0 || math.IsNaN(it.Profit) || math.IsInf(it.Profit, 0) {
			return fmt.Errorf("knapsack: item %d has invalid profit %v", i, it.Profit)
		}
	}
	return nil
}

// ErrNegativeCapacity is returned when the capacity is negative.
var ErrNegativeCapacity = errors.New("knapsack: negative capacity")

// Solver is a reusable solver workspace. Its methods compute the same
// results as the package-level functions but keep every internal buffer
// (DP value rows, decision bitsets, sort and scratch slices) between
// calls, so repeated solves over same-scale instances allocate nothing.
//
// A Solver is not safe for concurrent use, and the Solution.Take slice
// and *Trace returned by its methods alias workspace memory: they are
// valid only until the next call of the same kind on the workspace.
// Solutions are invalidated by the next Solve* call; traces by the next
// TraceDP call (a trace survives intervening Solve* calls).
type Solver struct {
	value     []float64 // DP best-value row (SolveDP)
	decisions []uint64  // flat n x words decision bitsets (SolveDP)
	rowHi     []int     // per-row upper capacity end (SolveDP)
	traceVal  []float64 // DP value row for TraceDP, kept separate so a
	// trace stays valid while the same workspace keeps solving
	trace  Trace
	take   []int // Take backing store for returned Solutions
	order  []int // item permutation for greedy / unit fast path
	byDens densitySorter
	byProf profitSorter
}

// NewSolver returns an empty workspace; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// totalWeight returns the sum of all item weights, saturating at
// math.MaxInt64 (weights are validated positive, so wraparound shows up
// as a negative running sum).
func totalWeight(items []Item) int64 {
	var sum int64
	for _, it := range items {
		sum += it.Weight
		if sum < 0 {
			return math.MaxInt64
		}
	}
	return sum
}

// clampCapacity bounds the DP table size: beyond the total item weight
// extra capacity cannot change any solution, so budgets near
// core.Unlimited (math.MaxInt64) no longer overflow int on 32-bit
// platforms or attempt absurd table allocations on 64-bit ones.
func clampCapacity(items []Item, capacity int64) int {
	if tw := totalWeight(items); capacity > tw {
		capacity = tw
	}
	return int(capacity)
}

// growFloats returns buf resized to n elements, all zero, reusing its
// backing array when large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// growWords is growFloats for bitset backing stores.
func growWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// SolveDP solves the instance exactly by dynamic programming over
// capacity, in O(n·min(capacity, Σweights)) time. All-unit-weight
// instances (the paper's Section 3 workloads) take an O(n log n)
// top-k-by-profit fast path instead, which returns a maximum-profit set
// with ties broken by index (see solveUnit); the general DP would break
// such ties differently. See the Solver doc for the lifetime of the
// returned Take slice.
//
// Row i is filled only over the capacities reconstruction can read,
// [max(wᵢ, c − Σ_{j>i} wⱼ), min(c, Σ_{j≤i} wⱼ)]: the walk back from c
// never drops below c minus the weight of the items after i, and above
// the prefix weight the row is flat because every item so far fits (its
// decision bit there equals the one at the upper end). Weights enter the
// sums clamped to c+1 so they cannot overflow; items heavier than c stay
// skipped. The cells computed are exactly the unpruned DP's, so Take,
// Profit and Weight are bit-identical to it.
func (s *Solver) SolveDP(items []Item, capacity int64) (Solution, error) {
	if capacity < 0 {
		return Solution{}, ErrNegativeCapacity
	}
	if err := Validate(items); err != nil {
		return Solution{}, err
	}
	c := clampCapacity(items, capacity)
	if unitWeights(items) {
		return s.solveUnit(items, c), nil
	}
	n := len(items)
	s.value = growFloats(s.value, c+1)
	value := s.value
	// One bitset row of decisions per item, in one flat allocation.
	words := (c + 1 + 63) / 64
	s.decisions = growWords(s.decisions, n*words)
	if cap(s.rowHi) < n {
		s.rowHi = make([]int, n)
	}
	rowHi := s.rowHi[:n]
	clamped := func(it Item) int { return int(min(it.Weight, int64(c)+1)) }
	suffix := 0 // Σ_{j>i} wⱼ, clamped weights
	for _, it := range items {
		suffix += clamped(it)
	}

	hi := 0 // the previous row's upper end, where its exact entries stop
	for i, it := range items {
		w := clamped(it)
		suffix -= w
		newHi := min(c, hi+w)
		for cap := hi + 1; cap <= newHi; cap++ {
			value[cap] = value[hi]
		}
		hi = newHi
		rowHi[i] = hi
		if w > c {
			continue
		}
		row := s.decisions[i*words : (i+1)*words]
		lo := max(w, c-suffix)
		for cap := hi; cap >= lo; cap-- {
			cand := value[cap-w] + it.Profit
			if cand > value[cap] {
				value[cap] = cand
				row[cap/64] |= 1 << (cap % 64)
			}
		}
	}

	sol := Solution{Profit: value[c], Take: s.take[:0]}
	remaining := c
	for i := n - 1; i >= 0; i-- {
		if at := min(remaining, rowHi[i]); s.decisions[i*words+at/64]&(1<<(at%64)) != 0 {
			sol.Take = append(sol.Take, i)
			sol.Weight += items[i].Weight
			remaining -= int(items[i].Weight)
		}
	}
	reverse(sol.Take)
	s.take = sol.Take
	return sol, nil
}

// unitWeights reports whether every item weighs exactly one data unit —
// the Figure 2/3 workloads, where the capacity-indexed DP degenerates to
// picking the top-capacity items by profit.
func unitWeights(items []Item) bool {
	if len(items) == 0 {
		return false
	}
	for _, it := range items {
		if it.Weight != 1 {
			return false
		}
	}
	return true
}

// solveUnit is the all-unit-weight fast path. It returns the top
// min(c, #positive-profit items) items ranked by (profit descending,
// index ascending), with Profit summed over the taken items in ascending
// index order: a maximum-profit set whose ties are broken by index.
//
// The general DP does not share that tie-break. Its strict-improvement
// comparisons run on rounded float sums, so among sets of equal profit
// it keeps whichever the rounding favours, and it skips an item whose
// profit vanishes in the running sum. Weight-1 profits {1, 1e-17} at
// capacity 5, for example, give Take [0 1] here and [0] from the DP,
// with the same Profit bits. The archived sweep and the Figure 2/3
// goldens pin this fast path, not the DP (TestUnitFastPathContract).
func (s *Solver) solveUnit(items []Item, c int) Solution {
	n := len(items)
	order := s.orderIdentity(n)
	s.byProf = profitSorter{items: items, order: order}
	sort.Sort(&s.byProf)
	k := c
	if k > n {
		k = n
	}
	// Zero-profit items are never an improvement for the DP; stop early.
	for k > 0 && items[order[k-1]].Profit <= 0 {
		k--
	}
	take := append(s.take[:0], order[:k]...)
	sort.Ints(take)
	sol := Solution{Take: take, Weight: int64(k)}
	for _, i := range take {
		sol.Profit += items[i].Profit
	}
	s.take = take
	return sol
}

// orderIdentity returns the workspace permutation buffer reset to the
// identity over n items.
func (s *Solver) orderIdentity(n int) []int {
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
	for i := range s.order {
		s.order[i] = i
	}
	return s.order
}

// profitSorter orders items by decreasing profit with an explicit
// secondary key on index, so equal profits rank deterministically.
type profitSorter struct {
	items []Item
	order []int
}

func (p *profitSorter) Len() int      { return len(p.order) }
func (p *profitSorter) Swap(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] }
func (p *profitSorter) Less(i, j int) bool {
	a, b := p.order[i], p.order[j]
	if p.items[a].Profit != p.items[b].Profit {
		return p.items[a].Profit > p.items[b].Profit
	}
	return a < b
}

// SolveDP solves the instance exactly by dynamic programming, allocating
// fresh working memory; use a Solver to amortize allocations across
// repeated calls.
func SolveDP(items []Item, capacity int64) (Solution, error) {
	var s Solver
	return s.SolveDP(items, capacity)
}

// Trace holds the exact best achievable profit for every integral budget
// from 0 to its capacity: Value[b] is the optimum with budget b. This is
// precisely the curve the paper's Figures 4-6 plot ("the algorithm ...
// allows us to observe how the quality of the solution changes as the
// upper bound increases"). The table is only materialized up to the
// total item weight — the curve is flat beyond it — so Value may be
// shorter than Capacity()+1; At and Marginal account for the flat tail.
type Trace struct {
	Value []float64
	// cap records a requested capacity larger than the materialized
	// table (zero for traces built literally from a Value slice).
	cap int64
}

// Capacity returns the largest budget covered by the trace.
func (t *Trace) Capacity() int64 {
	if c := int64(len(t.Value) - 1); t.cap < c {
		return c
	}
	return t.cap
}

// At returns the optimal profit at budget b, clamping b to the traced
// range.
func (t *Trace) At(b int64) float64 {
	if b < 0 {
		return t.Value[0]
	}
	if b >= int64(len(t.Value)) {
		return t.Value[len(t.Value)-1]
	}
	return t.Value[b]
}

// Marginal returns the profit gain of raising the budget from b-1 to b.
func (t *Trace) Marginal(b int64) float64 {
	if b <= 0 || b >= int64(len(t.Value)) {
		return 0
	}
	return t.Value[b] - t.Value[b-1]
}

// TraceDP computes the full best-value-per-capacity curve in
// O(n·min(capacity, Σweights)) time with no reconstruction state. The
// returned trace aliases workspace memory and is valid until the next
// TraceDP call on this workspace (it survives Solve* calls).
func (s *Solver) TraceDP(items []Item, capacity int64) (*Trace, error) {
	if capacity < 0 {
		return nil, ErrNegativeCapacity
	}
	if err := Validate(items); err != nil {
		return nil, err
	}
	c := clampCapacity(items, capacity)
	s.traceVal = growFloats(s.traceVal, c+1)
	value := s.traceVal
	for _, it := range items {
		w := int(it.Weight)
		if w > c {
			continue
		}
		for cap := c; cap >= w; cap-- {
			if cand := value[cap-w] + it.Profit; cand > value[cap] {
				value[cap] = cand
			}
		}
	}
	s.trace = Trace{Value: value, cap: capacity}
	return &s.trace, nil
}

// TraceDP computes the full best-value-per-capacity curve, allocating a
// fresh table; use a Solver to amortize allocations across repeated
// calls.
func TraceDP(items []Item, capacity int64) (*Trace, error) {
	var s Solver
	return s.TraceDP(items, capacity)
}

// SolveGreedy applies the classic density heuristic: consider items in
// decreasing profit/weight order, taking each that fits. The result is
// then compared against the best single item, which restores the standard
// 1/2-approximation guarantee. See the Solver doc for the lifetime of the
// returned Take slice.
func (s *Solver) SolveGreedy(items []Item, capacity int64) (Solution, error) {
	if capacity < 0 {
		return Solution{}, ErrNegativeCapacity
	}
	if err := Validate(items); err != nil {
		return Solution{}, err
	}
	order := s.densityOrder(items)
	sol := Solution{Take: s.take[:0]}
	remaining := capacity
	for _, i := range order {
		if items[i].Weight <= remaining {
			sol.Take = append(sol.Take, i)
			sol.Profit += items[i].Profit
			sol.Weight += items[i].Weight
			remaining -= items[i].Weight
		}
	}
	// Best single item that fits.
	best := -1
	for i, it := range items {
		if it.Weight <= capacity && (best < 0 || it.Profit > items[best].Profit) {
			best = i
		}
	}
	if best >= 0 && items[best].Profit > sol.Profit {
		sol = Solution{Take: append(sol.Take[:0], best), Profit: items[best].Profit, Weight: items[best].Weight}
	}
	sort.Ints(sol.Take)
	s.take = sol.Take
	return sol, nil
}

// SolveGreedy applies the density heuristic with fresh working memory;
// use a Solver to amortize allocations across repeated calls.
func SolveGreedy(items []Item, capacity int64) (Solution, error) {
	var s Solver
	return s.SolveGreedy(items, capacity)
}

// densityOrder fills the workspace permutation with item indexes sorted
// by decreasing profit/weight density, ties broken by ascending index.
func (s *Solver) densityOrder(items []Item) []int {
	order := s.orderIdentity(len(items))
	s.byDens = densitySorter{items: items, order: order}
	sort.Sort(&s.byDens)
	return order
}

// SolveBB solves the instance exactly by depth-first branch-and-bound
// with the fractional-relaxation upper bound. Exponential in the worst
// case but fast on the correlated instances of Section 4; used to cross-
// check the DP in tests.
func SolveBB(items []Item, capacity int64) (Solution, error) {
	if capacity < 0 {
		return Solution{}, ErrNegativeCapacity
	}
	if err := Validate(items); err != nil {
		return Solution{}, err
	}
	order := densityOrder(items)
	b := &bbState{items: items, order: order, capacity: capacity, bestTake: nil}
	// Seed the incumbent with the greedy solution: a strong initial lower
	// bound prunes most of the tree on large correlated instances.
	if greedy, err := SolveGreedy(items, capacity); err == nil && greedy.Profit > 0 {
		b.bestProfit = greedy.Profit
		b.bestWeight = greedy.Weight
		b.bestTake = append(b.bestTake, greedy.Take...)
	}
	b.search(0, 0, 0, nil)
	sol := Solution{Profit: b.bestProfit, Weight: b.bestWeight}
	sol.Take = append(sol.Take, b.bestTake...)
	sort.Ints(sol.Take)
	return sol, nil
}

type bbState struct {
	items      []Item
	order      []int
	capacity   int64
	bestProfit float64
	bestWeight int64
	bestTake   []int
}

// bound computes the fractional-knapsack upper bound for the subproblem
// starting at position pos with the given used weight and accumulated
// profit.
func (b *bbState) bound(pos int, weight int64, profit float64) float64 {
	remaining := b.capacity - weight
	bound := profit
	for _, i := range b.order[pos:] {
		it := b.items[i]
		if it.Weight <= remaining {
			remaining -= it.Weight
			bound += it.Profit
		} else {
			bound += it.Profit * float64(remaining) / float64(it.Weight)
			break
		}
	}
	return bound
}

func (b *bbState) search(pos int, weight int64, profit float64, take []int) {
	if profit > b.bestProfit {
		b.bestProfit = profit
		b.bestWeight = weight
		b.bestTake = append(b.bestTake[:0], take...)
	}
	if pos >= len(b.order) {
		return
	}
	if b.bound(pos, weight, profit) <= b.bestProfit {
		return
	}
	i := b.order[pos]
	it := b.items[i]
	if weight+it.Weight <= b.capacity {
		b.search(pos+1, weight+it.Weight, profit+it.Profit, append(take, i))
	}
	b.search(pos+1, weight, profit, take)
}

// densitySorter orders items by decreasing profit/weight density with an
// explicit secondary key on index, so equal densities (and profit/weight
// ties in particular) rank deterministically regardless of the sort
// algorithm's stability.
type densitySorter struct {
	items []Item
	order []int
}

func (d *densitySorter) Len() int      { return len(d.order) }
func (d *densitySorter) Swap(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] }
func (d *densitySorter) Less(i, j int) bool {
	a, b := d.order[i], d.order[j]
	da := d.items[a].Profit / float64(d.items[a].Weight)
	db := d.items[b].Profit / float64(d.items[b].Weight)
	if da != db {
		return da > db
	}
	return a < b
}

// densityOrder returns item indexes sorted by decreasing profit/weight
// density, ties broken by index for determinism.
func densityOrder(items []Item) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	s := densitySorter{items: items, order: order}
	sort.Sort(&s)
	return order
}

func reverse(v []int) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}
