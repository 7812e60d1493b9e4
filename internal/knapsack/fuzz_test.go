package knapsack

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzSolveDP feeds arbitrary byte-encoded instances to the exact solver
// and asserts structural invariants: no panic, any accepted solution
// respects the capacity, its reported profit/weight match its Take set,
// it equals the unpruned reference DP bit for bit, and the greedy
// heuristic never beats it. Item weights/profits are decoded from 9-byte
// records (uint8 weight, float64 profit) so the fuzzer can mutate
// instances field by field.
func FuzzSolveDP(f *testing.F) {
	seed := func(capacity int64, pairs ...any) []byte {
		buf := binary.AppendVarint(nil, capacity)
		for i := 0; i < len(pairs); i += 2 {
			buf = append(buf, byte(pairs[i].(int)))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pairs[i+1].(float64)))
		}
		return buf
	}
	f.Add(seed(10, 3, 2.5, 1, 0.75, 7, 4.0))
	f.Add(seed(0, 1, 1.0))
	f.Add(seed(-5, 2, 3.0))
	f.Add(seed(1<<40, 1, 0.0, 1, 1.0, 1, 2.0)) // unit fast path
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, n := binary.Varint(data)
		if n <= 0 {
			return
		}
		data = data[n:]
		var items []Item
		for len(data) >= 9 && len(items) < 24 {
			w := int64(data[0])
			p := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			items = append(items, Item{Weight: w, Profit: p})
			data = data[9:]
		}
		sol, err := SolveDP(items, capacity)
		ref, refErr := referenceDP(items, capacity)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("SolveDP error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return // invalid instance rejected cleanly, nothing to check
		}
		if !sameBits(sol, ref) {
			t.Fatalf("pruned DP (%v, %d, %v) != reference (%v, %d, %v)",
				sol.Profit, sol.Weight, sol.Take, ref.Profit, ref.Weight, ref.Take)
		}
		if capacity >= 0 && sol.Weight > capacity {
			t.Fatalf("solution weight %d exceeds capacity %d", sol.Weight, capacity)
		}
		var weight int64
		profit := 0.0
		prev := -1
		for _, i := range sol.Take {
			if i <= prev || i >= len(items) {
				t.Fatalf("take %v not strictly ascending within range", sol.Take)
			}
			prev = i
			weight += items[i].Weight
			profit += items[i].Profit
		}
		if weight != sol.Weight {
			t.Fatalf("reported weight %d != recomputed %d", sol.Weight, weight)
		}
		if math.Abs(profit-sol.Profit) > 1e-6*(1+math.Abs(profit)) {
			t.Fatalf("reported profit %v != recomputed %v", sol.Profit, profit)
		}
		greedy, err := SolveGreedy(items, capacity)
		if err != nil {
			t.Fatalf("greedy rejected an instance the DP accepted: %v", err)
		}
		if greedy.Profit > sol.Profit+1e-6*(1+sol.Profit) {
			t.Fatalf("greedy %v beat the exact DP %v", greedy.Profit, sol.Profit)
		}
	})
}

// FuzzIncremental feeds byte-encoded edit scripts to one IncrementalSolver
// and cross-checks every step against a cold SolveDP: identical profit,
// weight, and Take on the exact path, regardless of how the fuzzer
// interleaves profit edits, item churn, and capacity moves. Each 3-byte
// record is one edit: opcode, position selector, value.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{0, 1, 50, 1, 2, 9, 3, 0, 7, 4, 1, 0, 5, 0, 30})
	f.Add([]byte{3, 0, 1, 3, 0, 2, 3, 0, 3, 5, 0, 200})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		items := []Item{{Weight: 3, Profit: 2.5}, {Weight: 7, Profit: 4}, {Weight: 1, Profit: 0.75}}
		capacity := int64(8)
		inc := NewIncrementalSolver()
		ref := NewSolver()
		for step := 0; step < 32 && len(data) >= 3; step++ {
			op, pos, val := data[0], int(data[1]), data[2]
			data = data[3:]
			switch op % 6 {
			case 0: // profit edit (val==255 tombstones)
				if len(items) > 0 {
					p := float64(val) / 16
					if val == 255 {
						p = 0
					}
					items[pos%len(items)].Profit = p
				}
			case 1: // weight edit
				if len(items) > 0 {
					items[pos%len(items)].Weight = int64(val%40) + 1
				}
			case 2: // append
				if len(items) < 24 {
					items = append(items, Item{Weight: int64(val%40) + 1, Profit: float64(pos) / 16})
				}
			case 3: // delete with positional shift
				if len(items) > 0 {
					i := pos % len(items)
					items = append(items[:i], items[i+1:]...)
				}
			case 4: // capacity move
				capacity = int64(pos)*4 + int64(val)
			case 5: // no-op tick
			}
			got, err := inc.Solve(items, capacity)
			if err != nil {
				t.Fatalf("step %d: %v (items %v cap %d)", step, err, items, capacity)
			}
			want, err := ref.SolveDP(items, capacity)
			if err != nil {
				t.Fatalf("step %d: reference: %v", step, err)
			}
			if got.Profit != want.Profit || got.Weight != want.Weight || !slices.Equal(got.Take, want.Take) {
				t.Fatalf("step %d: incremental (%v, %d, %v) != DP (%v, %d, %v)\nitems %v cap %d",
					step, got.Profit, got.Weight, got.Take, want.Profit, want.Weight, want.Take, items, capacity)
			}
		}
	})
}
