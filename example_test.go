package mobicache_test

import (
	"fmt"
	"math/rand"

	"mobicache"
)

// The core use case: given cached-copy recencies and a batch of client
// requests with target recencies, pick the downloads that maximize the
// mean client score within a byte budget.
func ExampleSelector_Select() {
	sel, err := mobicache.NewSelector([]int64{3, 1, 4, 1, 5})
	if err != nil {
		panic(err)
	}
	recencies := []float64{1.0, 0.25, 0.5, 0.9, 0} // 0 = not cached
	reqs := []mobicache.Request{
		{Client: 0, Object: 1, Target: 1.0},
		{Client: 1, Object: 4, Target: 0.5},
		{Client: 2, Object: 2, Target: 0.4},
	}
	plan, err := sel.Select(reqs, recencies, 6)
	if err != nil {
		panic(err)
	}
	fmt.Println("download:", plan.Download)
	fmt.Printf("average score: %.3f\n", plan.AverageScore())
	// Output:
	// download: [1 4]
	// average score: 1.000
}

// The paper's future-work question — how much data is worth downloading —
// answered from the exact score-versus-budget curve.
func ExampleSelector_RecommendBudget() {
	sel, err := mobicache.NewSelector([]int64{2, 2, 2, 2})
	if err != nil {
		panic(err)
	}
	recencies := []float64{0.2, 0.4, 0.6, 0.8}
	reqs := []mobicache.Request{
		{Object: 0, Target: 1}, {Object: 1, Target: 1},
		{Object: 2, Target: 1}, {Object: 3, Target: 1},
	}
	rep, err := sel.RecommendBudget(reqs, recencies, 8, mobicache.BoundConfig{
		FractionOfMax: 0.75,
		Window:        1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("budget:", rep.Budget)
	// Output:
	// budget: 6
}

// A complete seeded simulation of the paper's architecture: servers
// updating objects, a budgeted on-demand policy, zipf-skewed clients.
func ExampleRunSimulation() {
	rep, err := mobicache.RunSimulation(mobicache.SimulationConfig{
		Objects:         100,
		UpdatePeriod:    5,
		Policy:          "on-demand-knapsack",
		BudgetPerTick:   10,
		RequestsPerTick: 20,
		Access:          "zipf",
		Warmup:          20,
		Ticks:           50,
		Seed:            1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("requests:", rep.Requests)
	fmt.Println("score above 0.9:", rep.MeanScore > 0.9)
	// Output:
	// requests: 1000
	// score above 0.9: true
}

// A citywide deployment, the full geography of the paper's Figure 1:
// many cells, one set of remote servers, and clients that roam between
// cells and drop off the network. After a handoff a client lands in a
// cell whose cache never saw its objects; cooperative caching lets the
// base station copy a neighbouring cell's entry instead of going back to
// the remote servers.
func ExampleRunMulticell() {
	base := mobicache.MulticellConfig{
		Cells:         6,
		Objects:       300,
		UpdatePeriod:  5,
		BudgetPerTick: 12,
		Clients:       360,
		MeanResidence: 25, // fast-moving commuters
		PDisconnect:   0.25,
		MeanAbsence:   15,
		RequestProb:   0.3,
		Access:        "zipf",
		Ticks:         500,
		Seed:          7,
	}
	fmt.Println("mode         requests  server-downloads  shared-copies  score   handoffs")
	for _, sharing := range []bool{false, true} {
		cfg := base
		cfg.CacheSharing = sharing
		rep, err := mobicache.RunMulticell(cfg)
		if err != nil {
			panic(err)
		}
		mode := "isolated"
		if sharing {
			mode = "cooperative"
		}
		fmt.Printf("%-11s  %8d  %16d  %13d  %.4f  %8d\n",
			mode, rep.Requests, rep.Downloads, rep.SharedCopies, rep.MeanScore, rep.Handoffs)
	}
	// Output:
	// mode         requests  server-downloads  shared-copies  score   handoffs
	// isolated        47785             26298              0  0.9897      4645
	// cooperative     47785             25950           1446  0.9899      4645
}

// A breaking-news feed: articles revised every 2 ticks, heavily skewed
// reader interest, and one tight budget shared by every refresh policy.
// Skew is what makes on-demand refresh cheap (the paper's Figure 2):
// the knapsack policy spends the budget where readers are, while
// background refresh spends it on articles nobody opens.
func ExampleRunSimulation_newsfeed() {
	for _, pol := range []string{
		"on-demand-knapsack",
		"on-demand-stale",
		"hybrid",
		"on-demand-lowest-recency",
		"async-freshness",
		"async-round-robin",
	} {
		rep, err := mobicache.RunSimulation(mobicache.SimulationConfig{
			Objects:         400,
			UpdatePeriod:    2,
			Policy:          pol,
			BudgetPerTick:   15,
			RequestsPerTick: 120,
			Access:          "zipf",
			TargetLo:        0.4, // readers tolerate slightly stale articles
			TargetHi:        1.0,
			Warmup:          100,
			Ticks:           400,
			Seed:            2026,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-24s  score %.4f  recency %.4f  downloads %d\n",
			pol, rep.MeanScore, rep.MeanRecency, rep.Downloads)
	}
	// Output:
	// on-demand-knapsack        score 0.8499  recency 0.6856  downloads 6000
	// on-demand-stale           score 0.8139  recency 0.6155  downloads 6001
	// hybrid                    score 0.7994  recency 0.5848  downloads 5986
	// on-demand-lowest-recency  score 0.6921  recency 0.3788  downloads 6000
	// async-freshness           score 0.6160  recency 0.2333  downloads 6001
	// async-round-robin         score 0.6113  recency 0.2247  downloads 6000
}

// A web proxy, the paper's other named setting: a bounded cache in front
// of origin servers whose pages change every 4 ticks, pages of 1 to 12
// units with zipf popularity, each cache replacement policy at two
// download budgets.
func ExampleRunSimulation_webproxy() {
	sizes := make([]int64, 300)
	for i := range sizes {
		sizes[i] = int64(i%12 + 1)
	}
	for _, replacement := range []string{"lru", "lfu", "size", "stalest", "gds"} {
		for _, budget := range []int64{30, 120} {
			rep, err := mobicache.RunSimulation(mobicache.SimulationConfig{
				Sizes:           sizes,
				UpdatePeriod:    4,
				Policy:          "on-demand-stale",
				BudgetPerTick:   budget,
				RequestsPerTick: 80,
				Access:          "zipf",
				CacheCapacity:   400, // ~20% of the catalog
				Replacement:     replacement,
				Warmup:          100,
				Ticks:           300,
				Seed:            42,
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-7s  budget %3d  score %.4f  recency %.4f  hit rate %.4f\n",
				replacement, budget, rep.MeanScore, rep.MeanRecency, rep.CacheHitRate)
		}
	}
	// Output:
	// lru      budget  30  score 0.6217  recency 0.5335  hit rate 0.6899
	// lru      budget 120  score 0.8198  recency 0.8106  hit rate 0.7327
	// lfu      budget  30  score 0.5923  recency 0.5042  hit rate 0.6510
	// lfu      budget 120  score 0.7583  recency 0.7447  hit rate 0.6325
	// size     budget  30  score 0.5404  recency 0.4628  hit rate 0.5793
	// size     budget 120  score 0.7590  recency 0.7327  hit rate 0.6626
	// stalest  budget  30  score 0.5935  recency 0.5279  hit rate 0.6313
	// stalest  budget 120  score 0.6808  recency 0.6771  hit rate 0.4270
	// gds      budget  30  score 0.6284  recency 0.5339  hit rate 0.7035
	// gds      budget 120  score 0.8196  recency 0.8061  hit rate 0.7419
}

// Stock quotes as quasi-copies (Alonso, Barbara & Garcia-Molina, cited in
// the paper's related work): trading desks demand fresh prices (target
// 1.0) while casual watchers accept stale ones (target 0.3). Each round
// about 40% of 50 tickers move, cached copies decay by x' = 1/(1/x + 1),
// and the selector picks the downloads within a budget of 6 and
// recommends the budget at which one more unit buys less than 0.05 score.
func ExampleSelector_Select_stockticker() {
	const tickers = 50
	sizes := make([]int64, tickers)
	recencies := make([]float64, tickers)
	for i := range sizes {
		sizes[i] = 1
		recencies[i] = 1
	}
	sel, err := mobicache.NewSelector(sizes)
	if err != nil {
		panic(err)
	}
	rnd := rand.New(rand.NewSource(7))
	fmt.Println("round  requests  stale  plan-size  avg-score  recommended-budget")
	for round := 1; round <= 8; round++ {
		stale := 0
		for i := range recencies {
			if rnd.Float64() < 0.4 {
				recencies[i] = recencies[i] / (1 + recencies[i])
			}
			if recencies[i] < 1 {
				stale++
			}
		}
		var reqs []mobicache.Request
		n := 10 + rnd.Intn(15)
		for c := 0; c < n; c++ {
			target := 0.3
			if c%3 == 0 {
				target = 1.0
			}
			reqs = append(reqs, mobicache.Request{
				Client: c,
				Object: mobicache.ObjectID(rnd.Intn(tickers)),
				Target: target,
			})
		}
		plan, err := sel.Select(reqs, recencies, 6)
		if err != nil {
			panic(err)
		}
		bound, err := sel.RecommendBudget(reqs, recencies, 30, mobicache.BoundConfig{
			MinMarginal: 0.05,
			Window:      1,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%5d  %8d  %5d  %9d  %9.3f  %18d\n",
			round, len(reqs), stale, len(plan.Download), plan.AverageScore(), bound.Budget)
		for _, id := range plan.Download {
			recencies[id] = 1
		}
	}
	// Output:
	// round  requests  stale  plan-size  avg-score  recommended-budget
	//     1        18     21          3      1.000                   0
	//     2        18     34          5      1.000                   1
	//     3        17     35          3      1.000                   0
	//     4        14     38          6      1.000                   1
	//     5        23     35          6      1.000                   2
	//     6        23     41          6      0.959                   6
	//     7        23     41          6      0.945                   7
	//     8        16     40          6      0.991                   2
}
