// Package dissemination promotes the dormant push-side packages
// (internal/invalidation, internal/broadcast) to a serving strategy for
// a cell: where the paper's base station pulls objects on demand and
// deliberately serves stale data, a dissemination cell delivers data the
// opposite way — the server pushes invalidation reports so terminal
// caches never knowingly serve data older than one broadcast interval,
// or pushes the objects themselves on a broadcast schedule clients wait
// for. The Cell mirrors basestation.Station's ServeTick surface so both
// engines (simulation.go, internal/multicell) can swap strategies behind
// one result shape, and the freshness-vs-bandwidth tradeoff between the
// two designs becomes measurable instead of asserted.
package dissemination

import (
	"fmt"

	"mobicache/internal/basestation"
	"mobicache/internal/broadcast"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/invalidation"
	"mobicache/internal/obs"
	"mobicache/internal/recency"
	"mobicache/internal/rng"
)

// Strategy selects how a cell delivers data to its clients.
type Strategy int

const (
	// OnDemand is the paper's pull path: the knapsack-driven station.
	// It is the default and is served by basestation.Station, never by a
	// dissemination Cell — New rejects it.
	OnDemand Strategy = iota
	// PushTS serves from a terminal cache kept consistent by windowed
	// timestamp invalidation reports (Barbara & Imielinski TS).
	PushTS
	// PushAT is the amnesic variant: reports cover one interval, any
	// missed report drops the terminal cache.
	PushAT
	// BroadcastFlat airs every object once per cycle; clients wait for
	// their slot.
	BroadcastFlat
	// BroadcastDisk airs a three-tier 4:2:1 multi-disk program: hot
	// objects come around more often.
	BroadcastDisk
	// HybridPushPull reserves every PullEvery-th slot for an explicit
	// pull backchannel over the multi-disk program.
	HybridPushPull
)

// String implements fmt.Stringer with the names ParseStrategy accepts.
func (s Strategy) String() string {
	switch s {
	case OnDemand:
		return "on-demand"
	case PushTS:
		return "push-ts"
	case PushAT:
		return "push-at"
	case BroadcastFlat:
		return "broadcast-flat"
	case BroadcastDisk:
		return "broadcast-disk"
	case HybridPushPull:
		return "hybrid-pushpull"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Names lists every parseable strategy name, the on-demand default
// first.
func Names() []string {
	return []string{"on-demand", "push-ts", "push-at", "broadcast-flat", "broadcast-disk", "hybrid-pushpull"}
}

// ParseStrategy maps a configuration name to a Strategy. The empty
// string is the on-demand default.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "on-demand":
		return OnDemand, nil
	case "push-ts":
		return PushTS, nil
	case "push-at":
		return PushAT, nil
	case "broadcast-flat":
		return BroadcastFlat, nil
	case "broadcast-disk", "broadcast-multidisk":
		return BroadcastDisk, nil
	case "hybrid-pushpull":
		return HybridPushPull, nil
	default:
		return OnDemand, fmt.Errorf("dissemination: unknown strategy %q (want one of %v)", name, Names())
	}
}

// Knobs are the strategy tuning parameters, separated from the wiring
// (catalog, fetcher, metrics) so engines can pass them through intact.
// Zero values select the package defaults noted per field.
type Knobs struct {
	// Interval is the invalidation-report period in ticks (push
	// strategies; default 10).
	Interval int
	// Window is the TS report window in intervals (default 2); PushAT
	// forces 1 per the AT semantics.
	Window int
	// SlotsPerTick is how many broadcast slots air per tick (broadcast
	// strategies; default 4).
	SlotsPerTick int
	// PullEvery dedicates every n-th hybrid slot to the pull
	// backchannel (default 4).
	PullEvery int
	// Threshold is the hybrid push wait (slots) above which clients use
	// the backchannel (default catalog/8, at least 1).
	Threshold int
	// SleepProb is the per-report probability that the cell's terminal
	// population sleeps through it (push strategies; models
	// disconnection on the wireless downlink).
	SleepProb float64
}

// Config configures a dissemination Cell.
type Config struct {
	Catalog  *catalog.Catalog
	Strategy Strategy
	Knobs
	// Fetcher, when non-nil, serves terminal-cache misses over a
	// fixed-network path that can fail (fault injection); nil is the
	// ideal always-succeeds path. Broadcast strategies never fetch.
	Fetcher basestation.Fetcher
	// Retry governs retries of failed fetches (used only with Fetcher).
	Retry basestation.RetryConfig
	// Metrics receives per-tick observability updates; may be nil.
	Metrics *obs.StationMetrics
	// Seed drives the sleep draws; cells with the same seed behave
	// identically.
	Seed uint64
}

// Stats aggregates the per-strategy dissemination counters.
type Stats struct {
	ReportsBroadcast uint64 // invalidation reports aired
	Invalidated      uint64 // terminal entries dropped by report contents
	Purges           uint64 // whole-cache terminal drops
	PushServed       uint64 // requests satisfied by the broadcast schedule
	PullServed       uint64 // requests satisfied by the pull backchannel
	PushUnits        uint64 // broadcast bandwidth: report headers+entries and aired slots
	WaitSlots        uint64 // total broadcast slots clients waited
}

// Cell serves one cell's requests with a push/broadcast strategy. It is
// not safe for concurrent use with itself; distinct Cells may serve
// concurrently.
type Cell struct {
	cfg   Config
	decay recency.Decay
	sleep *rng.Source

	// Push-invalidation state.
	broadcaster *invalidation.Broadcaster
	terminal    *invalidation.Terminal
	// updates[id] counts master updates; fetchedAt[id] is the update
	// count when the terminal's entry was filled, so a hit's true
	// delivered recency is AfterUpdates(updates-fetchedAt) — the same
	// omniscient accounting cache.OnMasterUpdate gives the station.
	updates   []uint64
	fetchedAt []uint64
	// failedNow dedups fetch attempts per tick: once the fetch layer
	// gives up on an object, later requests this tick score 0 instead
	// of re-hammering a down server.
	failedNow []bool
	failedIDs []catalog.ID

	// Broadcast state.
	program *broadcast.Program
	hybrid  *broadcast.Hybrid
	pos     int // program slots aired (flat/disk)

	stats Stats
}

// threeTierDisks splits ids into the 4:2:1 three-tier layout used across
// the broadcast experiments, adjusted so every disk divides into its
// lcm/freq chunks: the warm tier needs an even size, the cold tier a
// multiple of 4, and remainders fold into the unconstrained hot tier.
func threeTierDisks(ids []catalog.ID) ([]broadcast.Disk, error) {
	n := len(ids)
	if n < 8 {
		return nil, fmt.Errorf("dissemination: broadcast-disk needs >= 8 objects, got %d", n)
	}
	hot := n / 8
	if hot == 0 {
		hot = 1
	}
	warm := (n / 4) &^ 1
	cold := n - hot - warm
	hot += cold % 4
	cold -= cold % 4
	return []broadcast.Disk{
		{Objects: ids[:hot], Freq: 4},
		{Objects: ids[hot : hot+warm], Freq: 2},
		{Objects: ids[hot+warm:], Freq: 1},
	}, nil
}

// New builds a dissemination cell.
func New(cfg Config) (*Cell, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("dissemination: nil catalog")
	}
	if cfg.Strategy == OnDemand {
		return nil, fmt.Errorf("dissemination: on-demand is the station's pull path, not a dissemination strategy")
	}
	if cfg.SleepProb < 0 || cfg.SleepProb > 1 {
		return nil, fmt.Errorf("dissemination: sleep probability %v outside [0, 1]", cfg.SleepProb)
	}
	if cfg.Interval < 0 || cfg.Window < 0 || cfg.SlotsPerTick < 0 || cfg.Threshold < 0 {
		return nil, fmt.Errorf("dissemination: negative knob in %+v", cfg)
	}
	if cfg.Interval == 0 {
		cfg.Interval = 10
	}
	if cfg.Window == 0 {
		cfg.Window = 2
	}
	if cfg.SlotsPerTick == 0 {
		cfg.SlotsPerTick = 4
	}
	if cfg.PullEvery == 0 {
		cfg.PullEvery = 4
	}
	if cfg.PullEvery < 2 {
		return nil, fmt.Errorf("dissemination: pullEvery %d must be >= 2", cfg.PullEvery)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = cfg.Catalog.Len() / 8
		if cfg.Threshold < 1 {
			cfg.Threshold = 1
		}
	}
	c := &Cell{
		cfg:   cfg,
		decay: recency.DefaultDecay,
		sleep: rng.New(cfg.Seed ^ 0x51ee9d15c0),
	}
	switch cfg.Strategy {
	case PushTS, PushAT:
		strategy := invalidation.TS
		window := cfg.Window
		if cfg.Strategy == PushAT {
			strategy = invalidation.AT
			window = 1
		}
		b, err := invalidation.NewBroadcaster(cfg.Interval, window)
		if err != nil {
			return nil, err
		}
		term, err := invalidation.NewTerminal(strategy, b)
		if err != nil {
			return nil, err
		}
		c.broadcaster = b
		c.terminal = term
		c.updates = make([]uint64, cfg.Catalog.Len())
		c.fetchedAt = make([]uint64, cfg.Catalog.Len())
		c.failedNow = make([]bool, cfg.Catalog.Len())
	case BroadcastFlat:
		c.program = broadcast.Flat(cfg.Catalog)
	case BroadcastDisk, HybridPushPull:
		disks, err := threeTierDisks(cfg.Catalog.IDs())
		if err != nil {
			return nil, err
		}
		p, err := broadcast.MultiDisk(disks)
		if err != nil {
			return nil, err
		}
		c.program = p
		if cfg.Strategy == HybridPushPull {
			h, err := broadcast.NewHybrid(p, cfg.PullEvery, cfg.Threshold)
			if err != nil {
				return nil, err
			}
			c.hybrid = h
		}
	default:
		return nil, fmt.Errorf("dissemination: unknown strategy %d", cfg.Strategy)
	}
	return c, nil
}

// Strategy returns the cell's configured strategy.
func (c *Cell) Strategy() Strategy { return c.cfg.Strategy }

// Stats returns a copy of the dissemination counters.
func (c *Cell) Stats() Stats { return c.stats }

// ServeTick advances one tick: apply the tick's master updates, run the
// strategy's push work (reports or broadcast slots), and serve the
// tick's requests. Mirrors basestation.Station.ServeTick so the engines
// aggregate both through one Totals path.
func (c *Cell) ServeTick(tick int, reqs []client.Request, updated []catalog.ID) (basestation.TickResult, error) {
	res := basestation.TickResult{Tick: tick, Updated: len(updated)}
	before := c.stats
	switch c.cfg.Strategy {
	case PushTS, PushAT:
		c.pushTick(tick, reqs, updated, &res)
	default:
		c.broadcastTick(tick, reqs, updated, &res)
	}
	if m := c.cfg.Metrics; m != nil {
		c.observeTick(m, &res, before)
	}
	return res, nil
}

// ObserveUpdates records a tick's master updates without serving or
// airing anything — for an engine whose cell sits inside an outage
// window. The downed base station broadcasts no report, but the master
// update history it reports from keeps accumulating, so its
// post-recovery reports name everything the terminals missed and hit
// recency stays the true staleness. A no-op for broadcast strategies,
// which always air the current version.
func (c *Cell) ObserveUpdates(tick int, updated []catalog.ID) {
	if c.broadcaster == nil {
		return
	}
	for _, id := range updated {
		c.broadcaster.RecordUpdate(id, tick)
		c.updates[id]++
	}
}

// pushTick runs one tick of a push-invalidation strategy: record the
// updates, broadcast (or sleep through) the interval's report, then
// serve requests from the terminal cache with misses fetched over the
// fixed network.
func (c *Cell) pushTick(tick int, reqs []client.Request, updated []catalog.ID, res *basestation.TickResult) {
	for _, id := range updated {
		c.broadcaster.RecordUpdate(id, tick)
		c.updates[id]++
	}
	if tick > 0 && tick%c.cfg.Interval == 0 {
		r := c.broadcaster.ReportAt(tick)
		c.stats.ReportsBroadcast++
		c.stats.PushUnits += uint64(1 + len(r.Updates))
		// The sleep draw models the terminal population disconnecting
		// through this report; the report still costs its airtime.
		if !c.sleep.Bernoulli(c.cfg.SleepProb) {
			sBefore := c.terminal.Stats()
			c.terminal.OnReport(r)
			sAfter := c.terminal.Stats()
			c.stats.Invalidated += sAfter.Invalidated - sBefore.Invalidated
			c.stats.Purges += sAfter.Purges - sBefore.Purges
		}
	}
	defer c.resetFailedNow()
	for _, r := range reqs {
		res.Requests++
		if !c.cfg.Catalog.Valid(r.Object) {
			continue
		}
		if c.terminal.Query(r.Object, tick) {
			// Hit: delivered recency is the true staleness of the copy
			// (updates since its fill), exactly the station's omniscient
			// accounting — reports bound it, they do not reset it.
			x := c.decay.AfterUpdates(int(c.updates[r.Object] - c.fetchedAt[r.Object]))
			res.ScoreSum += recency.Inverse(x, r.Target)
			res.RecencySum += x
			if m := c.cfg.Metrics; m != nil {
				m.ClientScore.Observe(recency.Inverse(x, r.Target))
			}
			continue
		}
		// Miss: fetch over the fixed network, fill the terminal cache,
		// serve fresh.
		if c.failedNow[r.Object] {
			if m := c.cfg.Metrics; m != nil {
				m.ClientScore.Observe(0)
			}
			continue
		}
		if c.fetch(r.Object, tick, res) {
			c.terminal.Fill(r.Object, tick)
			c.fetchedAt[r.Object] = c.updates[r.Object]
			res.MissDownloads++
			res.DownloadUnits += c.cfg.Catalog.Size(r.Object)
			res.ScoreSum += 1
			res.RecencySum += 1
			if m := c.cfg.Metrics; m != nil {
				m.ClientScore.Observe(1)
			}
			continue
		}
		c.failedNow[r.Object] = true
		c.failedIDs = append(c.failedIDs, r.Object)
		if m := c.cfg.Metrics; m != nil {
			m.ClientScore.Observe(0)
		}
	}
}

// broadcastTick runs one tick of a broadcast strategy: serve the tick's
// requests against the current schedule position (each promised delivery
// is fresh at air time — the server always airs the current version),
// then air SlotsPerTick slots.
func (c *Cell) broadcastTick(tick int, reqs []client.Request, updated []catalog.ID, res *basestation.TickResult) {
	_ = updated // broadcast delivery is always fresh; updates cost nothing extra
	for _, r := range reqs {
		res.Requests++
		if !c.cfg.Catalog.Valid(r.Object) {
			continue
		}
		var wait int
		if c.hybrid != nil {
			pullBefore := c.hybrid.PullServed()
			wait = c.hybrid.Request(r.Object)
			if c.hybrid.PullServed() > pullBefore {
				c.stats.PullServed++
			} else {
				c.stats.PushServed++
			}
		} else {
			wait = c.program.NextOccurrence(r.Object, c.pos)
			c.stats.PushServed++
		}
		c.stats.WaitSlots += uint64(wait)
		// The broadcast delivers the then-current version: recency 1,
		// and the wait converts to simulated fetch latency.
		lat := float64(wait) / float64(c.cfg.SlotsPerTick)
		res.FetchLatency += lat
		res.ScoreSum += 1
		res.RecencySum += 1
		if m := c.cfg.Metrics; m != nil {
			m.FetchLatency.Observe(lat)
			m.ClientScore.Observe(1)
		}
	}
	for i := 0; i < c.cfg.SlotsPerTick; i++ {
		if c.hybrid != nil {
			if c.hybrid.Air() >= 0 {
				c.stats.PushUnits++
			}
		} else {
			c.pos++
			c.stats.PushUnits++
		}
	}
}

// fetch downloads one object over the Fetcher (or the ideal path),
// honoring the retry configuration, and reports whether it succeeded.
func (c *Cell) fetch(id catalog.ID, tick int, res *basestation.TickResult) bool {
	if c.cfg.Fetcher == nil {
		return true
	}
	attempts := c.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	elapsed := 0.0
	backoff := c.cfg.Retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		_, _, latency, err := c.cfg.Fetcher.Fetch(id, tick)
		elapsed += latency
		timedOut := c.cfg.Retry.Timeout > 0 && elapsed > c.cfg.Retry.Timeout
		if err == nil && !timedOut {
			res.FetchLatency += elapsed
			if m := c.cfg.Metrics; m != nil {
				m.FetchLatency.Observe(elapsed)
			}
			return true
		}
		if timedOut || attempt >= attempts {
			res.FailedDownloads++
			res.FetchLatency += elapsed
			if m := c.cfg.Metrics; m != nil {
				m.FetchLatency.Observe(elapsed)
			}
			return false
		}
		res.Retries++
		elapsed += backoff
		backoff *= 2
		if c.cfg.Retry.MaxBackoff > 0 && backoff > c.cfg.Retry.MaxBackoff {
			backoff = c.cfg.Retry.MaxBackoff
		}
	}
}

func (c *Cell) resetFailedNow() {
	for _, id := range c.failedIDs {
		c.failedNow[id] = false
	}
	c.failedIDs = c.failedIDs[:0]
}

// observeTick folds one tick into the metrics bundle: the station-shaped
// counters plus the dissemination deltas accumulated this tick.
func (c *Cell) observeTick(m *obs.StationMetrics, res *basestation.TickResult, before Stats) {
	m.Ticks.Inc()
	m.Requests.Add(uint64(res.Requests))
	m.ServerUpdates.Add(uint64(res.Updated))
	m.MissDownloads.Add(uint64(res.MissDownloads))
	m.FailedDownloads.Add(uint64(res.FailedDownloads))
	m.Retries.Add(uint64(res.Retries))
	m.DownloadUnits.Add(uint64(res.DownloadUnits))
	m.TickBytes.Observe(float64(res.DownloadUnits))
	m.InvalidationReports.Add(c.stats.ReportsBroadcast - before.ReportsBroadcast)
	m.InvalidatedEntries.Add(c.stats.Invalidated - before.Invalidated)
	m.TerminalPurges.Add(c.stats.Purges - before.Purges)
	m.PushServed.Add(c.stats.PushServed - before.PushServed)
	m.PullServed.Add(c.stats.PullServed - before.PullServed)
	m.PushUnits.Add(c.stats.PushUnits - before.PushUnits)
}
