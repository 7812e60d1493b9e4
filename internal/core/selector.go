// Package core implements the paper's primary contribution: the on-demand
// download selector. Given the batch of client requests a base station has
// accumulated, the state of its cache, and an upper bound on how much data
// may be downloaded from the fixed network, the selector decides which
// objects to access remotely and which to serve from the (possibly stale)
// cache so as to maximize the mean client recency score.
//
// The mapping to 0/1 knapsack follows Section 2 of the paper exactly: each
// candidate object u is an item of weight size(u); its profit is the sum,
// over the clients requesting u, of the benefit of downloading —
// 1 − f_C(x), where x is the cached copy's recency score and C the
// client's target recency. Objects not in the cache at all must be
// downloaded to be served; they enter the knapsack with per-client benefit
// 1 (score 0 from the cache).
//
// The package also implements the paper's future-work extension: choosing
// the upper bound itself. UpperBound inspects the dynamic program's
// best-score-per-budget curve and picks the smallest budget at which the
// marginal gain per data unit falls below a threshold (or a fraction of
// the maximum attainable score is reached), formalizing the paper's
// observation that "under some circumstances there is not a great benefit
// to downloading large amounts of data".
package core

import (
	"fmt"
	"math"
	"slices"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/knapsack"
	"mobicache/internal/obs"
	"mobicache/internal/recency"
)

// Unlimited is the budget value meaning "no limit on downloaded data".
const Unlimited int64 = math.MaxInt64

// CacheView is the read-only slice of cache state the selector needs:
// whether an object has a cached copy and how recent that copy is.
// *cache.Cache implements it; so do lightweight snapshots (the public
// facade builds one from a recency slice).
type CacheView interface {
	// Recency returns the cached copy's recency score in (0, 1], or 0 if
	// the object is not cached.
	Recency(catalog.ID) float64
	// Contains reports whether the object has a cached copy at all.
	Contains(catalog.ID) bool
}

// Demand aggregates the requests for one object within a batch.
type Demand struct {
	Object  catalog.ID
	Targets []float64 // one per requesting client
}

// Count returns the number of clients requesting the object.
func (d Demand) Count() int { return len(d.Targets) }

// Aggregate groups a request batch by object, preserving first-seen object
// order for determinism. The result is freshly allocated; on the per-tick
// hot path prefer Selector.AggregateRequests, which reuses the selector's
// workspace.
func Aggregate(reqs []client.Request) []Demand {
	index := make(map[catalog.ID]int)
	var out []Demand
	for _, r := range reqs {
		i, ok := index[r.Object]
		if !ok {
			i = len(out)
			index[r.Object] = i
			out = append(out, Demand{Object: r.Object})
		}
		out[i].Targets = append(out[i].Targets, r.Target)
	}
	return out
}

// SolverKind selects the knapsack algorithm used by the selector.
type SolverKind int

const (
	// SolverDP is the exact dynamic program (paper's choice).
	SolverDP SolverKind = iota
	// SolverGreedy is the density heuristic with best-single fallback.
	SolverGreedy
	// SolverIncremental is the exact warm-start solver: the selector
	// keeps a slot-stable knapsack instance across ticks (departed
	// objects become zero-profit tombstones the strict-improvement DP
	// never takes, new objects append) and the solver re-derives only
	// the DP rows the tick's diff invalidated. Plans achieve exactly the
	// optimal profit, but equal-profit ties may resolve to a different
	// download set than SolverDP, whose instance is in demand order.
	SolverIncremental
	// SolverCertified is SolverIncremental with the approximate first
	// pass enabled: a density-greedy or capacity-quantized solution is
	// returned when certifiably within (1-CertEps) of optimal, and the
	// solver escalates to the exact path otherwise.
	SolverCertified
)

// String implements fmt.Stringer.
func (k SolverKind) String() string {
	switch k {
	case SolverDP:
		return "dp"
	case SolverGreedy:
		return "greedy"
	case SolverIncremental:
		return "incremental"
	case SolverCertified:
		return "certified"
	default:
		return fmt.Sprintf("SolverKind(%d)", int(k))
	}
}

// ParseSolver maps a solver name ("dp", "greedy", "incremental",
// "certified") to its SolverKind; the empty string means the default,
// SolverDP.
func ParseSolver(name string) (SolverKind, error) {
	switch name {
	case "", "dp":
		return SolverDP, nil
	case "greedy":
		return SolverGreedy, nil
	case "incremental":
		return SolverIncremental, nil
	case "certified":
		return SolverCertified, nil
	default:
		return 0, fmt.Errorf("core: unknown solver %q (want dp, greedy, incremental, or certified)", name)
	}
}

// Config configures a Selector.
type Config struct {
	// Score maps (cached recency, client target) to a client score.
	// Defaults to recency.Inverse, the paper's first scoring function.
	Score recency.ScoreFunc
	// Solver selects the knapsack algorithm; defaults to SolverDP.
	Solver SolverKind
	// CertEps is the certified-pass tolerance (used only by
	// SolverCertified): approximate solutions are accepted only when
	// provably within a factor (1-CertEps) of optimal. Defaults to 0.05.
	CertEps float64
	// FullResolves / WarmResolves, when non-nil, count each bounded-
	// budget solve as either a cold re-solve or one served from warm
	// incremental state (see obs.StationMetrics.SolverFullResolves).
	// Non-incremental solvers count every solve as full.
	FullResolves *obs.Counter
	WarmResolves *obs.Counter
	// Trace, when non-nil, receives one obs.Decision per knapsack
	// candidate on every Select call — why the object was downloaded or
	// left to its stale copy (profit, weight, cached recency, budget
	// remaining). Clones share the ring; recording is bounded and
	// allocation-free.
	Trace *obs.TraceRing
}

// Selector maps request batches to download plans.
//
// A Selector owns a reusable solver workspace and scratch buffers, so at
// steady state Select allocates nothing; in exchange it is not safe for
// concurrent use, and the slices inside a returned Plan (Download,
// FromCache) alias that workspace: they are valid until the selector's
// next call. Use Clone to give each goroutine its own selector over the
// same catalog and configuration.
type Selector struct {
	cat *catalog.Catalog
	cfg Config

	// tick stamps decision-trace records (see SetTick).
	tick int

	// Per-call workspace, reused across ticks.
	solver    knapsack.Solver
	demands   []Demand
	demandOf  []int32 // object -> index into demands, -1 when absent
	items     []knapsack.Item
	meta      []itemMeta
	download  []catalog.ID
	fromCache []catalog.ID
	taken     []bool

	// Incremental-solver state (SolverIncremental / SolverCertified):
	// a slot-stable knapsack instance that persists across ticks so the
	// solver can diff it. slotOf maps object -> slot (-1 when absent);
	// slots hold zero-profit tombstones between demands and are
	// compacted — at the price of one cold solve — when tombstones
	// outnumber live entries.
	inc       *knapsack.IncrementalSolver
	slotOf    []int32
	slotObj   []catalog.ID
	slotItems []knapsack.Item
	slotRec   []float64 // cached recency per slot at decision time
	slotDem   []bool    // demanded this tick (cleared each Select)
}

// NewSelector creates a selector for the given catalog.
func NewSelector(cat *catalog.Catalog, cfg Config) (*Selector, error) {
	if cat == nil {
		return nil, fmt.Errorf("core: nil catalog")
	}
	if cfg.Score == nil {
		cfg.Score = recency.Inverse
	}
	if cfg.CertEps == 0 {
		cfg.CertEps = 0.05
	}
	if cfg.CertEps < 0 || cfg.CertEps >= 1 {
		return nil, fmt.Errorf("core: certification eps %v out of (0,1)", cfg.CertEps)
	}
	switch cfg.Solver {
	case SolverDP, SolverGreedy, SolverIncremental, SolverCertified:
	default:
		return nil, fmt.Errorf("core: unknown solver %d", int(cfg.Solver))
	}
	return &Selector{cat: cat, cfg: cfg}, nil
}

// Clone returns a selector sharing this selector's catalog and
// configuration (including any decision-trace ring) but owning a fresh
// workspace, so each goroutine of a concurrent server can select
// independently.
func (s *Selector) Clone() *Selector {
	return &Selector{cat: s.cat, cfg: s.cfg}
}

// SetTraceRing installs (or, with nil, removes) the decision-trace sink
// for subsequent Select calls. Clones made after the call inherit it.
func (s *Selector) SetTraceRing(r *obs.TraceRing) { s.cfg.Trace = r }

// Solver reports which knapsack algorithm this selector runs. Clones
// share their parent's configuration, so a pooled clone answers for the
// selector it was cloned from.
func (s *Selector) Solver() SolverKind { return s.cfg.Solver }

// SetTick sets the tick stamped on subsequent decision-trace records.
// Tick-driven callers (the knapsack policy) set the simulated tick; the
// daemon stamps a selection sequence number instead.
func (s *Selector) SetTick(tick int) { s.tick = tick }

// Plan is the selector's decision for one batch.
type Plan struct {
	// Download lists the objects to fetch remotely, ascending by ID.
	Download []catalog.ID
	// FromCache lists the requested objects served from the cache,
	// ascending by ID.
	FromCache []catalog.ID
	// DownloadUnits is the total size of the Download set.
	DownloadUnits int64
	// Requests is the number of client requests in the batch.
	Requests int
	// CachedScore is the total client score if nothing were downloaded.
	CachedScore float64
	// Gain is the total client score added by the planned downloads.
	Gain float64
}

// AverageScore returns the mean per-client recency score the plan
// achieves (paper Section 4's Average Score), or 0 for an empty batch.
func (p Plan) AverageScore() float64 {
	if p.Requests == 0 {
		return 0
	}
	return (p.CachedScore + p.Gain) / float64(p.Requests)
}

// AggregateRequests groups a request batch by object, preserving
// first-seen object order, into the selector's reusable workspace.
// Requests for objects outside the catalog are dropped (Select would skip
// them anyway). The returned demands are valid until the next
// AggregateRequests or SelectRequests call on this selector.
func (s *Selector) AggregateRequests(reqs []client.Request) []Demand {
	if s.demandOf == nil {
		s.demandOf = make([]int32, s.cat.Len())
		for i := range s.demandOf {
			s.demandOf[i] = -1
		}
	}
	ds := s.demands[:0]
	for _, r := range reqs {
		if !s.cat.Valid(r.Object) {
			continue
		}
		idx := s.demandOf[r.Object]
		if idx < 0 {
			idx = int32(len(ds))
			s.demandOf[r.Object] = idx
			if len(ds) < cap(ds) {
				// Reclaim the slot along with its Targets capacity.
				ds = ds[:len(ds)+1]
				d := &ds[idx]
				d.Object = r.Object
				d.Targets = d.Targets[:0]
			} else {
				ds = append(ds, Demand{Object: r.Object})
			}
		}
		ds[idx].Targets = append(ds[idx].Targets, r.Target)
	}
	for i := range ds {
		s.demandOf[ds[i].Object] = -1
	}
	s.demands = ds
	return ds
}

// SelectRequests aggregates a raw request batch and selects the objects
// to download, reusing the selector's workspace throughout — the
// allocation-free form of Aggregate + Select for the per-tick hot path.
func (s *Selector) SelectRequests(reqs []client.Request, c CacheView, budget int64) (Plan, error) {
	return s.Select(s.AggregateRequests(reqs), c, budget)
}

// Select chooses the objects to download for the aggregated demands given
// the cache state and a budget in data units (Unlimited for no limit).
// The returned plan's slices alias the selector's workspace and are valid
// until the next call on this selector.
func (s *Selector) Select(demands []Demand, c CacheView, budget int64) (Plan, error) {
	if budget < 0 {
		return Plan{}, fmt.Errorf("core: negative budget %d", budget)
	}
	if s.cfg.Solver == SolverIncremental || s.cfg.Solver == SolverCertified {
		return s.selectIncremental(demands, c, budget)
	}
	items, meta, plan := s.buildItems(demands, c)
	plan.Download = s.download[:0]
	if len(items) == 0 {
		slices.Sort(plan.FromCache)
		s.storeScratch(items, meta, plan)
		return plan, nil
	}

	// An unlimited budget means every positive-profit item is taken; skip
	// the solver (and its O(n·budget) cost).
	unlimited := budget == Unlimited
	if unlimited {
		for i, it := range items {
			plan.Download = append(plan.Download, meta[i].object)
			plan.DownloadUnits += it.Weight
			plan.Gain += it.Profit
		}
	} else {
		sol, err := s.solve(items, budget)
		if err != nil {
			return Plan{}, err
		}
		if len(s.taken) < len(items) {
			s.taken = make([]bool, len(items))
		}
		taken := s.taken[:len(items)]
		clear(taken)
		for _, i := range sol.Take {
			taken[i] = true
			plan.Download = append(plan.Download, meta[i].object)
		}
		plan.DownloadUnits = sol.Weight
		plan.Gain = sol.Profit
		for i := range items {
			if !taken[i] {
				plan.FromCache = append(plan.FromCache, meta[i].object)
			}
		}
	}
	if s.cfg.Trace != nil {
		s.recordDecisions(items, meta, budget, unlimited)
	}
	slices.Sort(plan.Download)
	slices.Sort(plan.FromCache)
	s.storeScratch(items, meta, plan)
	return plan, nil
}

// recordDecisions writes one trace entry per knapsack candidate of the
// Select call that just ran: taken items first (with the running budget
// remaining as each download is committed), then the candidates whose
// requests stay on their stale cached copies. It reuses the workspace's
// taken flags and allocates nothing.
func (s *Selector) recordDecisions(items []knapsack.Item, meta []itemMeta, budget int64, unlimited bool) {
	ring := s.cfg.Trace
	remaining := obs.UnlimitedBudget
	if !unlimited {
		remaining = budget
	}
	for i, it := range items {
		if !unlimited && !s.taken[i] {
			continue
		}
		if !unlimited {
			remaining -= it.Weight
		}
		ring.Record(obs.Decision{
			Tick:            s.tick,
			Object:          int(meta[i].object),
			Action:          obs.ActionDownload,
			Profit:          it.Profit,
			Weight:          it.Weight,
			Recency:         meta[i].recency,
			BudgetRemaining: remaining,
		})
	}
	if unlimited {
		return // every candidate was downloaded
	}
	for i, it := range items {
		if s.taken[i] {
			continue
		}
		ring.Record(obs.Decision{
			Tick:            s.tick,
			Object:          int(meta[i].object),
			Action:          obs.ActionStale,
			Profit:          it.Profit,
			Weight:          it.Weight,
			Recency:         meta[i].recency,
			BudgetRemaining: remaining,
		})
	}
}

// storeScratch hands the (possibly regrown) working slices back to the
// selector so their capacity carries over to the next call.
func (s *Selector) storeScratch(items []knapsack.Item, meta []itemMeta, plan Plan) {
	s.items = items
	s.meta = meta
	if plan.Download != nil {
		s.download = plan.Download
	}
	s.fromCache = plan.FromCache
}

type itemMeta struct {
	object  catalog.ID
	recency float64 // cached recency at decision time (0 = absent)
}

// buildItems constructs the knapsack instance for a batch: one item per
// requested object whose download would add client score. Objects already
// fresh enough for all their requesters go straight to FromCache.
func (s *Selector) buildItems(demands []Demand, c CacheView) ([]knapsack.Item, []itemMeta, Plan) {
	items := s.items[:0]
	meta := s.meta[:0]
	var plan Plan
	plan.FromCache = s.fromCache[:0]
	for _, d := range demands {
		if !s.cat.Valid(d.Object) {
			// Unknown object: nothing to serve; skip defensively.
			continue
		}
		x := c.Recency(d.Object) // 0 when absent
		profit := 0.0
		for _, target := range d.Targets {
			score := 0.0
			if c.Contains(d.Object) {
				score = s.cfg.Score(x, target)
			}
			plan.CachedScore += score
			profit += recency.Benefit(score)
		}
		plan.Requests += d.Count()
		if profit > 0 {
			items = append(items, knapsack.Item{Weight: s.cat.Size(d.Object), Profit: profit})
			meta = append(meta, itemMeta{object: d.Object, recency: x})
		} else {
			plan.FromCache = append(plan.FromCache, d.Object)
		}
	}
	return items, meta, plan
}

func (s *Selector) solve(items []knapsack.Item, budget int64) (knapsack.Solution, error) {
	if s.cfg.FullResolves != nil {
		s.cfg.FullResolves.Inc() // one-shot solvers always solve cold
	}
	switch s.cfg.Solver {
	case SolverGreedy:
		return s.solver.SolveGreedy(items, budget)
	default:
		return s.solver.SolveDP(items, budget)
	}
}

// selectIncremental is Select for the warm-start solver kinds. It folds
// the batch into the selector's slot-stable instance — live demands
// update their slot in place, new ones append, everything else decays to
// a zero-profit tombstone the strict-improvement DP provably never takes
// — and hands the whole instance to the incremental solver, whose diff
// against the previous tick determines how much DP work actually runs.
func (s *Selector) selectIncremental(demands []Demand, c CacheView, budget int64) (Plan, error) {
	var plan Plan
	plan.FromCache = s.fromCache[:0]
	plan.Download = s.download[:0]
	if s.slotOf == nil {
		s.slotOf = make([]int32, s.cat.Len())
		for i := range s.slotOf {
			s.slotOf[i] = -1
		}
	}
	// Fold demands into slots, scoring exactly as buildItems does.
	for _, d := range demands {
		if !s.cat.Valid(d.Object) {
			continue
		}
		x := c.Recency(d.Object) // 0 when absent
		profit := 0.0
		for _, target := range d.Targets {
			score := 0.0
			if c.Contains(d.Object) {
				score = s.cfg.Score(x, target)
			}
			plan.CachedScore += score
			profit += recency.Benefit(score)
		}
		plan.Requests += d.Count()
		if profit <= 0 {
			// Fresh enough already; any slot it holds decays below.
			plan.FromCache = append(plan.FromCache, d.Object)
			continue
		}
		slot := s.slotOf[d.Object]
		if slot < 0 {
			slot = int32(len(s.slotItems))
			s.slotOf[d.Object] = slot
			s.slotItems = append(s.slotItems, knapsack.Item{})
			s.slotObj = append(s.slotObj, d.Object)
			s.slotRec = append(s.slotRec, 0)
			s.slotDem = append(s.slotDem, false)
		}
		s.slotItems[slot] = knapsack.Item{Weight: s.cat.Size(d.Object), Profit: profit}
		s.slotRec[slot] = x
		s.slotDem[slot] = true
	}
	// Tombstone slots the batch no longer demands, then compact once
	// tombstones dominate — compaction shifts positions, costing one
	// cold solve, but keeps the table proportional to the live set.
	live := 0
	for i := range s.slotItems {
		if s.slotDem[i] {
			s.slotDem[i] = false
			live++
		} else {
			s.slotItems[i].Profit = 0
		}
	}
	if len(s.slotItems) > 16 && len(s.slotItems) > 2*live {
		s.compactSlots()
	}
	if live == 0 {
		slices.Sort(plan.FromCache)
		s.fromCache = plan.FromCache
		return plan, nil
	}

	unlimited := budget == Unlimited
	if unlimited {
		for i, it := range s.slotItems {
			if it.Profit > 0 {
				plan.Download = append(plan.Download, s.slotObj[i])
				plan.DownloadUnits += it.Weight
				plan.Gain += it.Profit
			}
		}
	} else {
		if s.inc == nil {
			s.inc = knapsack.NewIncrementalSolver()
			if s.cfg.Solver == SolverCertified {
				s.inc.CertEps = s.cfg.CertEps
			}
		}
		before := s.inc.Stats()
		sol, err := s.inc.Solve(s.slotItems, budget)
		if err != nil {
			return Plan{}, err
		}
		s.countResolves(before)
		if len(s.taken) < len(s.slotItems) {
			s.taken = make([]bool, len(s.slotItems))
		}
		taken := s.taken[:len(s.slotItems)]
		clear(taken)
		for _, i := range sol.Take {
			taken[i] = true
			plan.Download = append(plan.Download, s.slotObj[i])
		}
		plan.DownloadUnits = sol.Weight
		plan.Gain = sol.Profit
		for i, it := range s.slotItems {
			if it.Profit > 0 && !taken[i] {
				plan.FromCache = append(plan.FromCache, s.slotObj[i])
			}
		}
	}
	if s.cfg.Trace != nil {
		s.recordSlotDecisions(budget, unlimited)
	}
	slices.Sort(plan.Download)
	slices.Sort(plan.FromCache)
	s.download = plan.Download
	s.fromCache = plan.FromCache
	return plan, nil
}

// compactSlots drops tombstoned slots, renumbering the survivors.
func (s *Selector) compactSlots() {
	k := 0
	for i := range s.slotItems {
		if s.slotItems[i].Profit > 0 {
			s.slotItems[k] = s.slotItems[i]
			s.slotObj[k] = s.slotObj[i]
			s.slotRec[k] = s.slotRec[i]
			s.slotOf[s.slotObj[i]] = int32(k)
			k++
		} else {
			s.slotOf[s.slotObj[i]] = -1
		}
	}
	s.slotItems = s.slotItems[:k]
	s.slotObj = s.slotObj[:k]
	s.slotRec = s.slotRec[:k]
	s.slotDem = s.slotDem[:k]
}

// countResolves folds the incremental solver's path counters since
// `before` into the configured resolve counters: full solves on one
// side; cached, warm, unit, and certified solves — everything that
// avoided a cold DP — on the other.
func (s *Selector) countResolves(before knapsack.SolverStats) {
	if s.cfg.FullResolves == nil && s.cfg.WarmResolves == nil {
		return
	}
	after := s.inc.Stats()
	full := after.FullSolves - before.FullSolves
	warm := (after.WarmSolves - before.WarmSolves) +
		(after.CachedHits - before.CachedHits) +
		(after.UnitSolves - before.UnitSolves) +
		(after.CertifiedSolves - before.CertifiedSolves)
	if full > 0 && s.cfg.FullResolves != nil {
		s.cfg.FullResolves.Add(full)
	}
	if warm > 0 && s.cfg.WarmResolves != nil {
		s.cfg.WarmResolves.Add(warm)
	}
}

// recordSlotDecisions is recordDecisions for the slot-stable instance:
// one entry per live candidate slot, downloads first.
func (s *Selector) recordSlotDecisions(budget int64, unlimited bool) {
	ring := s.cfg.Trace
	remaining := obs.UnlimitedBudget
	if !unlimited {
		remaining = budget
	}
	for i, it := range s.slotItems {
		if it.Profit <= 0 || (!unlimited && !s.taken[i]) {
			continue
		}
		if !unlimited {
			remaining -= it.Weight
		}
		ring.Record(obs.Decision{
			Tick:            s.tick,
			Object:          int(s.slotObj[i]),
			Action:          obs.ActionDownload,
			Profit:          it.Profit,
			Weight:          it.Weight,
			Recency:         s.slotRec[i],
			BudgetRemaining: remaining,
		})
	}
	if unlimited {
		return // every candidate was downloaded
	}
	for i, it := range s.slotItems {
		if it.Profit <= 0 || s.taken[i] {
			continue
		}
		ring.Record(obs.Decision{
			Tick:            s.tick,
			Object:          int(s.slotObj[i]),
			Action:          obs.ActionStale,
			Profit:          it.Profit,
			Weight:          it.Weight,
			Recency:         s.slotRec[i],
			BudgetRemaining: remaining,
		})
	}
}

// Trace computes the exact best-gain-per-budget curve for a batch — the
// object of study in the paper's Section 4. The returned trace's Value[b]
// is the score gain achievable with budget b; combine with the plan's
// CachedScore to obtain Average Score curves. The trace aliases the
// selector's workspace: it stays valid across Select calls but is
// overwritten by the next Trace (or UpperBound) call.
func (s *Selector) Trace(demands []Demand, c CacheView, maxBudget int64) (*knapsack.Trace, Plan, error) {
	if maxBudget < 0 {
		return nil, Plan{}, fmt.Errorf("core: negative budget %d", maxBudget)
	}
	items, meta, plan := s.buildItems(demands, c)
	tr, err := s.solver.TraceDP(items, maxBudget)
	if err != nil {
		return nil, Plan{}, err
	}
	s.storeScratch(items, meta, plan)
	return tr, plan, nil
}
