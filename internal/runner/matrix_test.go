package runner

import (
	"reflect"
	"strings"
	"testing"
)

// TestExpandExactlyOnce is the matrix-expansion property test: the
// expansion's size is the product of the dimension sizes, every
// combination is unique, and every combination's coordinates come from
// the declared dimensions — together, every point of the cross product
// appears exactly once.
func TestExpandExactlyOnce(t *testing.T) {
	matrices := []Matrix{
		DefaultMatrix(),
		{
			Solvers:  []string{"dp"},
			Accesses: []string{"uniform", "linear", "zipf"},
			Budgets:  []int64{0, 4, 16, 64},
			Cells:    []int{1, 2, 8},
			Mobility: []string{"default", "static", "nomadic"},
			Profiles: []string{"ideal", "flaky", "blackout", "resilient"},
		},
		{
			Solvers:  []string{"greedy", "certified"},
			Accesses: []string{"zipf"},
			Budgets:  []int64{8},
			Cells:    []int{1},
			Mobility: []string{"nomadic"},
			Profiles: []string{"ideal"},
		},
	}
	for i, m := range matrices {
		combos, err := m.Expand()
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		want := len(m.Solvers) * len(m.Accesses) * len(m.Budgets) *
			len(m.Cells) * len(m.Mobility) * len(m.Profiles) * len(m.policies())
		if len(combos) != want || m.Size() != want {
			t.Fatalf("matrix %d: %d combos, want %d (Size %d)", i, len(combos), want, m.Size())
		}
		seen := make(map[Combo]bool, len(combos))
		inDim := func(vals []string, v string) bool {
			for _, x := range vals {
				if x == v {
					return true
				}
			}
			return false
		}
		for _, c := range combos {
			if seen[c] {
				t.Fatalf("matrix %d: combination %+v appears more than once", i, c)
			}
			seen[c] = true
			if !inDim(m.Solvers, c.Solver) || !inDim(m.Accesses, c.Access) ||
				!inDim(m.Mobility, c.Mobility) || !inDim(m.Profiles, c.Profile) ||
				!inDim(m.policies(), c.Policy) {
				t.Fatalf("matrix %d: combination %+v has coordinates outside the matrix", i, c)
			}
		}
	}
}

// TestRunIDsDeterministic pins that run ids are a pure function of the
// combination and the seed: re-expanding yields identical ids in
// identical order, ids are unique within a sweep, and the same
// combination maps to different ids only when the seed changes.
func TestRunIDsDeterministic(t *testing.T) {
	m := DefaultMatrix()
	a, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same matrix differ")
	}
	const seed = 7
	ids := make(map[string]bool, len(a))
	for i, c := range a {
		id := c.ID(seed)
		if id != b[i].ID(seed) {
			t.Fatalf("id for %+v not stable: %q vs %q", c, id, b[i].ID(seed))
		}
		if ids[id] {
			t.Fatalf("duplicate run id %q", id)
		}
		ids[id] = true
		if c.ID(seed+1) == id {
			t.Fatalf("id %q does not depend on the seed", id)
		}
	}
	// A specific id, pinned: any accidental wall-clock or counter
	// dependence would break this exact string.
	c := Combo{Solver: "dp", Access: "zipf", Budget: 8, Cells: 4, Mobility: "default", Profile: "ideal"}
	if got, want := c.ID(1), "dp_zipf_b8_c4_default_ideal_s1"; got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
	// The on-demand policy (explicit or zero-valued) must not change the
	// id: archives swept before the policy dimension existed stay valid
	// gate baselines. Only a push policy contributes a segment.
	c.Policy = "on-demand"
	if got, want := c.ID(1), "dp_zipf_b8_c4_default_ideal_s1"; got != want {
		t.Fatalf("on-demand ID = %q, want the pre-policy id %q", got, want)
	}
	c.Policy = "push-ts"
	if got, want := c.ID(1), "dp_zipf_b8_c4_default_ideal_ppush-ts_s1"; got != want {
		t.Fatalf("push ID = %q, want %q", got, want)
	}
}

// TestMatrixValidation exercises the rejection paths.
func TestMatrixValidation(t *testing.T) {
	base := func() Matrix {
		return Matrix{
			Solvers:  []string{"dp"},
			Accesses: []string{"uniform"},
			Budgets:  []int64{8},
			Cells:    []int{1},
			Mobility: []string{"default"},
			Profiles: []string{"ideal"},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Matrix)
		frag   string
	}{
		{"empty solvers", func(m *Matrix) { m.Solvers = nil }, "empty solvers"},
		{"unknown solver", func(m *Matrix) { m.Solvers = []string{"quantum"} }, "solver"},
		{"duplicate solver", func(m *Matrix) { m.Solvers = []string{"dp", "dp"} }, "duplicate"},
		{"unknown access", func(m *Matrix) { m.Accesses = []string{"bimodal"} }, "access"},
		{"negative budget", func(m *Matrix) { m.Budgets = []int64{-1} }, "negative budget"},
		{"duplicate budget", func(m *Matrix) { m.Budgets = []int64{8, 8} }, "duplicate budget"},
		{"zero cells", func(m *Matrix) { m.Cells = []int{0} }, "cells 0"},
		{"duplicate cells", func(m *Matrix) { m.Cells = []int{2, 2} }, "duplicate cells"},
		{"unknown mobility", func(m *Matrix) { m.Mobility = []string{"teleport"} }, "mobility"},
		{"unknown profile", func(m *Matrix) { m.Profiles = []string{"meteor"} }, "fault profile"},
		{"unknown policy", func(m *Matrix) { m.Policies = []string{"telepathy"} }, "policy"},
		{"duplicate policy", func(m *Matrix) { m.Policies = []string{"push-ts", "push-ts"} }, "duplicate"},
		{"policy vs resilience profile", func(m *Matrix) {
			m.Policies = []string{"push-ts"}
			m.Profiles = []string{"resilient"}
		}, "does not compose"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(&m)
			_, err := m.Expand()
			if err == nil {
				t.Fatalf("Expand accepted %+v", m)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}
