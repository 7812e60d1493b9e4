package core

import (
	"math"
	"testing"
	"testing/quick"

	"mobicache/internal/cache"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/recency"
	"mobicache/internal/rng"
)

func testCatalog(sizes ...int64) *catalog.Catalog {
	return catalog.MustNew(sizes)
}

func freshCache(cat *catalog.Catalog, lags map[catalog.ID]int) *cache.Cache {
	c := cache.Unlimited()
	for _, id := range cat.IDs() {
		if err := c.Put(id, cat.Size(id), 0, 0); err != nil {
			panic(err)
		}
	}
	for id, lag := range lags {
		for i := 0; i < lag; i++ {
			c.OnMasterUpdate(id)
		}
	}
	return c
}

func TestAggregate(t *testing.T) {
	reqs := []client.Request{
		{Client: 0, Object: 2, Target: 1},
		{Client: 1, Object: 5, Target: 0.5},
		{Client: 2, Object: 2, Target: 0.8},
	}
	ds := Aggregate(reqs)
	if len(ds) != 2 {
		t.Fatalf("aggregated %d demands, want 2", len(ds))
	}
	if ds[0].Object != 2 || ds[0].Count() != 2 {
		t.Fatalf("demand 0 = %+v", ds[0])
	}
	if ds[1].Object != 5 || ds[1].Count() != 1 {
		t.Fatalf("demand 1 = %+v", ds[1])
	}
	if ds[0].Targets[0] != 1 || ds[0].Targets[1] != 0.8 {
		t.Fatalf("targets = %v", ds[0].Targets)
	}
	if got := Aggregate(nil); len(got) != 0 {
		t.Fatalf("Aggregate(nil) = %v", got)
	}
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil, Config{}); err == nil {
		t.Fatal("nil catalog accepted")
	}
	cat := testCatalog(1)
	if _, err := NewSelector(cat, Config{CertEps: -0.5}); err == nil {
		t.Fatal("negative certification eps accepted")
	}
	if _, err := NewSelector(cat, Config{CertEps: 2}); err == nil {
		t.Fatal("certification eps >= 1 accepted")
	}
	if _, err := NewSelector(cat, Config{Solver: SolverKind(42)}); err == nil {
		t.Fatal("bogus solver accepted")
	}
}

func TestSolverKindString(t *testing.T) {
	if SolverDP.String() != "dp" || SolverGreedy.String() != "greedy" ||
		SolverIncremental.String() != "incremental" || SolverCertified.String() != "certified" {
		t.Fatal("solver names wrong")
	}
	if SolverKind(9).String() != "SolverKind(9)" {
		t.Fatal("unknown solver name wrong")
	}
}

func TestSelectAllFreshDownloadsNothing(t *testing.T) {
	cat := testCatalog(1, 1, 1)
	c := freshCache(cat, nil)
	s, err := NewSelector(cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []client.Request{{Object: 0, Target: 1}, {Object: 2, Target: 1}}
	plan, err := s.Select(Aggregate(reqs), c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Download) != 0 {
		t.Fatalf("fresh cache but planned downloads %v", plan.Download)
	}
	if len(plan.FromCache) != 2 {
		t.Fatalf("FromCache = %v", plan.FromCache)
	}
	if got := plan.AverageScore(); got != 1 {
		t.Fatalf("AverageScore = %v, want 1", got)
	}
	if plan.Requests != 2 || plan.DownloadUnits != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestSelectStaleObjectsWithinBudget(t *testing.T) {
	cat := testCatalog(3, 3, 3)
	// Objects 0 and 2 stale, 1 fresh.
	c := freshCache(cat, map[catalog.ID]int{0: 2, 2: 5})
	s, _ := NewSelector(cat, Config{})
	reqs := []client.Request{
		{Object: 0, Target: 1}, {Object: 1, Target: 1}, {Object: 2, Target: 1},
	}
	// Budget fits exactly one download: the staler object 2 yields the
	// higher benefit.
	plan, err := s.Select(Aggregate(reqs), c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Download) != 1 || plan.Download[0] != 2 {
		t.Fatalf("Download = %v, want [2]", plan.Download)
	}
	if plan.DownloadUnits != 3 {
		t.Fatalf("DownloadUnits = %d", plan.DownloadUnits)
	}
	// FromCache holds the other two requested objects.
	if len(plan.FromCache) != 2 {
		t.Fatalf("FromCache = %v", plan.FromCache)
	}
	// Score: obj1 fresh (1.0), obj2 downloaded (1.0), obj0 cached at
	// recency 1/3 with target 1 → Inverse(1/3, 1) = 1/(1+2/3) = 0.6.
	want := (1.0 + 1.0 + 0.6) / 3
	if got := plan.AverageScore(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("AverageScore = %v, want %v", got, want)
	}
}

func TestSelectPopularityRaisesProfit(t *testing.T) {
	cat := testCatalog(2, 2)
	c := freshCache(cat, map[catalog.ID]int{0: 1, 1: 1}) // equally stale
	s, _ := NewSelector(cat, Config{})
	// Object 1 requested by three clients, object 0 by one.
	reqs := []client.Request{
		{Object: 0, Target: 1},
		{Object: 1, Target: 1}, {Object: 1, Target: 1}, {Object: 1, Target: 1},
	}
	plan, err := s.Select(Aggregate(reqs), c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Download) != 1 || plan.Download[0] != 1 {
		t.Fatalf("Download = %v, want the popular object [1]", plan.Download)
	}
}

func TestSelectAbsentObjectMustDownload(t *testing.T) {
	cat := testCatalog(1, 1)
	c := cache.Unlimited() // empty: nothing cached
	s, _ := NewSelector(cat, Config{})
	reqs := []client.Request{{Object: 0, Target: 0.1}}
	plan, err := s.Select(Aggregate(reqs), c, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Even with a tiny target, an absent object has cache score 0 and
	// benefit 1.
	if len(plan.Download) != 1 || plan.Download[0] != 0 {
		t.Fatalf("Download = %v, want [0]", plan.Download)
	}
	if plan.CachedScore != 0 || math.Abs(plan.Gain-1) > 1e-12 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestSelectUnlimitedBudget(t *testing.T) {
	cat := testCatalog(5, 7, 9)
	c := freshCache(cat, map[catalog.ID]int{0: 1, 1: 1, 2: 1})
	s, _ := NewSelector(cat, Config{})
	reqs := []client.Request{{Object: 0, Target: 1}, {Object: 1, Target: 1}, {Object: 2, Target: 1}}
	plan, err := s.Select(Aggregate(reqs), c, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Download) != 3 {
		t.Fatalf("unlimited budget downloaded %v", plan.Download)
	}
	if plan.AverageScore() != 1 {
		t.Fatalf("AverageScore = %v, want 1", plan.AverageScore())
	}
	if plan.DownloadUnits != 21 {
		t.Fatalf("DownloadUnits = %d, want 21", plan.DownloadUnits)
	}
}

func TestSelectNegativeBudget(t *testing.T) {
	cat := testCatalog(1)
	s, _ := NewSelector(cat, Config{})
	if _, err := s.Select(nil, cache.Unlimited(), -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestSelectSkipsInvalidObjects(t *testing.T) {
	cat := testCatalog(1)
	s, _ := NewSelector(cat, Config{})
	plan, err := s.Select([]Demand{{Object: 99, Targets: []float64{1}}}, cache.Unlimited(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Download) != 0 || plan.Requests != 0 {
		t.Fatalf("plan for invalid object = %+v", plan)
	}
}

func TestSelectSolversAgreeOnEasyInstances(t *testing.T) {
	cat := testCatalog(2, 3, 4, 5, 6)
	c := freshCache(cat, map[catalog.ID]int{0: 1, 1: 2, 2: 3, 3: 4, 4: 5})
	var reqs []client.Request
	for id := 0; id < 5; id++ {
		reqs = append(reqs, client.Request{Object: catalog.ID(id), Target: 1})
	}
	demands := Aggregate(reqs)
	var gains []float64
	for _, kind := range []SolverKind{SolverDP, SolverGreedy, SolverCertified} {
		s, err := NewSelector(cat, Config{Solver: kind})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.Select(demands, c, 20)
		if err != nil {
			t.Fatal(err)
		}
		gains = append(gains, plan.Gain)
	}
	dp := gains[0]
	if gains[1] < 0.5*dp || gains[2] < 0.95*dp {
		t.Fatalf("solver gains %v violate guarantees vs DP %v", gains, dp)
	}
}

func TestSelectScoreFunctionMatters(t *testing.T) {
	cat := testCatalog(1)
	c := freshCache(cat, map[catalog.ID]int{0: 3}) // recency 0.25
	demands := []Demand{{Object: 0, Targets: []float64{1}}}
	inv, _ := NewSelector(cat, Config{Score: recency.Inverse})
	exp, _ := NewSelector(cat, Config{Score: recency.Exponential})
	pInv, _ := inv.Select(demands, c, 0)
	pExp, _ := exp.Select(demands, c, 0)
	// With budget 0 nothing downloads; scores differ by function.
	wantInv := recency.Inverse(0.25, 1)
	wantExp := recency.Exponential(0.25, 1)
	if math.Abs(pInv.AverageScore()-wantInv) > 1e-12 {
		t.Fatalf("inverse score = %v, want %v", pInv.AverageScore(), wantInv)
	}
	if math.Abs(pExp.AverageScore()-wantExp) > 1e-12 {
		t.Fatalf("exponential score = %v, want %v", pExp.AverageScore(), wantExp)
	}
}

func TestSelectMonotoneInBudgetProperty(t *testing.T) {
	// Property: average score never decreases as the budget grows, and
	// download size never exceeds the budget.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.IntRange(1, 12)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = int64(r.IntRange(1, 9))
		}
		cat := catalog.MustNew(sizes)
		lags := map[catalog.ID]int{}
		for _, id := range cat.IDs() {
			lags[id] = r.IntRange(0, 6)
		}
		c := freshCache(cat, lags)
		var reqs []client.Request
		for k := 0; k < r.IntRange(1, 30); k++ {
			reqs = append(reqs, client.Request{
				Client: k,
				Object: catalog.ID(r.Intn(n)),
				Target: r.FloatRange(0.1, 1),
			})
		}
		demands := Aggregate(reqs)
		s, err := NewSelector(cat, Config{})
		if err != nil {
			return false
		}
		prev := -1.0
		for b := int64(0); b <= cat.TotalSize(); b += 3 {
			plan, err := s.Select(demands, c, b)
			if err != nil {
				return false
			}
			if plan.DownloadUnits > b {
				return false
			}
			score := plan.AverageScore()
			if score < prev-1e-9 {
				return false
			}
			prev = score
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceConsistentWithSelect(t *testing.T) {
	cat := testCatalog(2, 3, 5, 7)
	c := freshCache(cat, map[catalog.ID]int{0: 1, 1: 3, 2: 2, 3: 4})
	var reqs []client.Request
	for id := 0; id < 4; id++ {
		for k := 0; k <= id; k++ {
			reqs = append(reqs, client.Request{Object: catalog.ID(id), Target: 1})
		}
	}
	demands := Aggregate(reqs)
	s, _ := NewSelector(cat, Config{})
	tr, base, err := s.Trace(demands, c, 17)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b <= 17; b += 2 {
		plan, err := s.Select(demands, c, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tr.At(b)-plan.Gain) > 1e-9 {
			t.Fatalf("trace gain at %d = %v, Select gain = %v", b, tr.At(b), plan.Gain)
		}
		if base.Requests != plan.Requests || math.Abs(base.CachedScore-plan.CachedScore) > 1e-9 {
			t.Fatal("base plan differs between Trace and Select")
		}
	}
}

func TestPlanAverageScoreEmpty(t *testing.T) {
	var p Plan
	if p.AverageScore() != 0 {
		t.Fatal("empty plan AverageScore != 0")
	}
}
