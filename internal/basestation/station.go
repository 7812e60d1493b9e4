// Package basestation ties the system together: per time unit it lets the
// remote servers update objects, hands the tick's client requests and the
// cache state to a refresh policy, executes the policy's downloads, and
// serves every request — fresh downloads at score 1.0, cache reads scored
// by the client's target recency. This is the executable form of the
// paper's Figure 1 architecture.
package basestation

import (
	"fmt"
	"sort"
	"time"

	"mobicache/internal/cache"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/obs"
	"mobicache/internal/policy"
	"mobicache/internal/recency"
	"mobicache/internal/resilience"
	"mobicache/internal/server"
)

// Fetcher is a remote-fetch path that can fail or take time: the shape of
// server.FaultyServer.Fetch. A failed fetch returns a non-nil error and
// must not deliver data; the returned latency is the simulated time the
// attempt cost whether or not it succeeded.
type Fetcher interface {
	Fetch(id catalog.ID, tick int) (version uint64, size int64, latency float64, err error)
}

// RetryConfig governs how the station retries failed remote fetches.
// The zero value means one attempt, no backoff, no timeout — the paper's
// ideal fetch path.
type RetryConfig struct {
	// MaxAttempts is the total number of fetch attempts per download
	// (1 = no retry). 0 is treated as 1.
	MaxAttempts int
	// BaseBackoff is the simulated-time wait before the second attempt;
	// each further attempt doubles it (capped by MaxBackoff).
	BaseBackoff float64
	// MaxBackoff caps the exponential backoff (0 = uncapped).
	MaxBackoff float64
	// Timeout is the per-download budget in simulated time, spanning all
	// attempts and backoff waits; a fetch whose cumulative cost exceeds
	// it is abandoned even if attempts remain (0 = no timeout).
	Timeout float64
}

// validate checks the retry configuration.
func (r RetryConfig) validate() error {
	if r.MaxAttempts < 0 {
		return fmt.Errorf("basestation: negative retry attempts %d", r.MaxAttempts)
	}
	if r.BaseBackoff < 0 || r.MaxBackoff < 0 || r.Timeout < 0 {
		return fmt.Errorf("basestation: negative retry timing %+v", r)
	}
	return nil
}

// Config configures a Station.
type Config struct {
	Catalog *catalog.Catalog
	Server  *server.Server
	Policy  policy.Policy
	// Cache defaults to an unlimited cache with C=1 decay.
	Cache *cache.Cache
	// Score measures the satisfaction of a request served from cache;
	// defaults to recency.Inverse.
	Score recency.ScoreFunc
	// BudgetPerTick limits the data units the policy may download per
	// tick; 0 or policy.Unlimited means no limit.
	BudgetPerTick int64
	// CompulsoryMisses, when true, downloads requested objects absent
	// from the cache outside the budget (they cannot be served at all
	// otherwise). The paper sidesteps this by warming the cache;
	// compulsory downloads are tracked separately so experiments can
	// exclude warmup effects.
	CompulsoryMisses bool
	// Fetcher, when non-nil, replaces direct Server downloads on the
	// fetch path (fault injection, instrumentation). A download whose
	// fetch ultimately fails is skipped: requests for the object fall
	// back to the stale cached copy, scored by the recency curve rather
	// than 1.0. Nil keeps the paper's ideal always-succeeds path.
	Fetcher Fetcher
	// Retry governs retries of failed fetches (used only with Fetcher).
	Retry RetryConfig
	// Breaker, when non-nil, is a circuit breaker on the fetch path:
	// repeated abandoned downloads trip it, and while it is open every
	// download short-circuits straight to the stale-fallback path
	// instead of burning retry and timeout budget. While the breaker is
	// open the station serves the whole tick in stale-only mode (no
	// policy downloads, no compulsory misses). Armed without a Fetcher,
	// it gates the fault-free fetch path and never opens.
	Breaker *resilience.Breaker
	// Admission bounds the per-tick request load; excess requests are
	// shed deterministically, lowest knapsack profit first (the profit
	// of refreshing the requested object, 1 − cachedScore: a request
	// whose cached copy is already fresh needs the station least). The
	// zero value admits everything.
	Admission resilience.Admission
	// Metrics, when non-nil, receives per-tick observability updates
	// (counters, histograms, failed-download trace records). The bundle
	// is pre-registered and lock-cheap, so steady-state ticks stay
	// allocation-free; nil costs one branch per site.
	Metrics *obs.StationMetrics
}

// TickResult reports what happened in one tick.
type TickResult struct {
	Tick            int
	Updated         int     // objects updated at the servers
	Requests        int     // client requests served
	PolicyDownloads int     // downloads chosen by the policy
	MissDownloads   int     // compulsory downloads for cache misses
	FailedDownloads int     // downloads abandoned after retries/timeout
	Retries         int     // extra fetch attempts beyond the first
	StaleFallbacks  int     // requests served a stale copy because the refresh failed
	DownloadUnits   int64   // data units fetched over the fixed network
	ScoreSum        float64 // sum of per-request client scores
	RecencySum      float64 // sum of per-request delivered recency values
	FetchLatency    float64 // simulated time spent fetching (attempts + backoff)

	// Resilience accounting. Shed requests are refused before service
	// and appear in no other counter (not Requests, not the score sums).
	Shed          int             // requests refused by admission control
	ShortCircuits int             // downloads refused outright by the open breaker
	BreakerTrips  int             // breaker trips during this tick
	BreakerProbes int             // half-open probes granted during this tick
	Mode          resilience.Mode // the tick's degradation-ladder rung
}

// Source says where one request's answer came from.
type Source uint8

const (
	// SourceMiss is a request nothing could serve (not cached, not
	// downloadable this tick): score 0.
	SourceMiss Source = iota
	// SourceDownload is a request served by a download made this tick
	// (policy-chosen or compulsory): score 1.
	SourceDownload
	// SourceCache is a request served from the cached copy, scored by
	// the recency curve.
	SourceCache
	// SourceShed is a request refused by admission control before
	// service; it appears in no score sum.
	SourceShed
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceMiss:
		return "miss"
	case SourceDownload:
		return "download"
	case SourceCache:
		return "cache"
	case SourceShed:
		return "shed"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Outcome is the per-request counterpart of TickResult: what one request
// was served, where it came from, and what it scored. The serve engine
// uses it to answer each ingested request individually; the tick
// simulation never materializes outcomes (ServeTick passes a nil slice).
type Outcome struct {
	Source  Source
	Score   float64 // the client score this request earned
	Recency float64 // recency of the delivered data (0 on miss/shed)
	Stale   bool    // served a stale copy after a failed/suppressed refresh
}

// Totals accumulates TickResults.
type Totals struct {
	Ticks           int
	Updated         uint64
	Requests        uint64
	PolicyDownloads uint64
	MissDownloads   uint64
	FailedDownloads uint64
	Retries         uint64
	StaleFallbacks  uint64
	DownloadUnits   int64
	ScoreSum        float64
	RecencySum      float64
	FetchLatency    float64

	Shed          uint64
	ShortCircuits uint64
	BreakerTrips  uint64
	BreakerProbes uint64
	DegradedTicks uint64 // ticks served in stale-only mode
	ShedTicks     uint64 // ticks that shed at least one request
}

// Add folds one tick into the totals.
func (t *Totals) Add(r TickResult) {
	t.Ticks++
	t.Updated += uint64(r.Updated)
	t.Requests += uint64(r.Requests)
	t.PolicyDownloads += uint64(r.PolicyDownloads)
	t.MissDownloads += uint64(r.MissDownloads)
	t.FailedDownloads += uint64(r.FailedDownloads)
	t.Retries += uint64(r.Retries)
	t.StaleFallbacks += uint64(r.StaleFallbacks)
	t.DownloadUnits += r.DownloadUnits
	t.ScoreSum += r.ScoreSum
	t.RecencySum += r.RecencySum
	t.FetchLatency += r.FetchLatency
	t.Shed += uint64(r.Shed)
	t.ShortCircuits += uint64(r.ShortCircuits)
	t.BreakerTrips += uint64(r.BreakerTrips)
	t.BreakerProbes += uint64(r.BreakerProbes)
	if r.Mode == resilience.ModeStaleOnly {
		t.DegradedTicks++
	}
	if r.Mode == resilience.ModeShed {
		t.ShedTicks++
	}
}

// Downloads returns all downloads (policy plus compulsory).
func (t *Totals) Downloads() uint64 { return t.PolicyDownloads + t.MissDownloads }

// MeanScore returns the mean per-request client score.
func (t *Totals) MeanScore() float64 {
	if t.Requests == 0 {
		return 0
	}
	return t.ScoreSum / float64(t.Requests)
}

// MeanRecency returns the mean delivered recency per request (the measure
// plotted in Figure 3).
func (t *Totals) MeanRecency() float64 {
	if t.Requests == 0 {
		return 0
	}
	return t.RecencySum / float64(t.Requests)
}

// Station is the base station of one cell.
type Station struct {
	cfg   Config
	cache *cache.Cache
	// downloadedNow flags the objects fetched in the current tick;
	// downloadedIDs lists the flagged entries so the per-tick reset is
	// O(downloads) instead of O(catalog). Both persist across ticks so
	// steady-state ticks allocate nothing here. failedNow/failedIDs do
	// the same for downloads the fetch layer abandoned this tick, so
	// requests for those objects fall back to the stale cached copy
	// without re-hammering a down server within the tick.
	downloadedNow []bool
	downloadedIDs []catalog.ID
	failedNow     []bool
	failedIDs     []catalog.ID
	// view is the reusable policy view handed to Decide each tick; kept on
	// the station so taking its address does not heap-allocate per tick.
	view policy.TickView
	// Admission-control scratch, reused across ticks so shedding stays
	// allocation-free: per-request profits, the profit-sorted index
	// permutation (shedOrder wraps both for sort.Sort — an interface
	// value over a pointer field does not allocate), the shed flags, and
	// the admitted-requests buffer handed to the rest of the tick.
	shedProfit []float64
	shedFlag   []bool
	shedOrder  shedOrder
	admitted   []client.Request
	// admittedIdx maps each admitted request back to its index in the
	// original batch, so per-request outcomes land at the caller's
	// positions even after shedding compacted the slice.
	admittedIdx []int
}

// shedOrder sorts request indexes by ascending profit, ties broken by
// the original (deterministic) request order.
type shedOrder struct {
	profit []float64
	idx    []int
}

func (o *shedOrder) Len() int { return len(o.idx) }
func (o *shedOrder) Less(i, j int) bool {
	a, b := o.idx[i], o.idx[j]
	if o.profit[a] != o.profit[b] {
		return o.profit[a] < o.profit[b]
	}
	return a < b
}
func (o *shedOrder) Swap(i, j int) { o.idx[i], o.idx[j] = o.idx[j], o.idx[i] }

// New creates a Station and wires the server's update stream into the
// cache's recency decay.
func New(cfg Config) (*Station, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("basestation: nil catalog")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("basestation: nil server")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("basestation: nil policy")
	}
	if cfg.BudgetPerTick < 0 {
		return nil, fmt.Errorf("basestation: negative budget %d", cfg.BudgetPerTick)
	}
	if err := cfg.Retry.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Admission.Validate(); err != nil {
		return nil, fmt.Errorf("basestation: %w", err)
	}
	if cfg.Breaker != nil && cfg.Fetcher == nil {
		cfg.Fetcher = directFetch{cfg.Server}
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry.MaxAttempts = 1
	}
	if cfg.Score == nil {
		cfg.Score = recency.Inverse
	}
	if cfg.BudgetPerTick == 0 {
		cfg.BudgetPerTick = policy.Unlimited
	}
	c := cfg.Cache
	if c == nil {
		c = cache.Unlimited()
	}
	st := &Station{
		cfg:           cfg,
		cache:         c,
		downloadedNow: make([]bool, cfg.Catalog.Len()),
		failedNow:     make([]bool, cfg.Catalog.Len()),
	}
	cfg.Server.OnUpdate(c.OnMasterUpdate)
	return st, nil
}

// Cache returns the station's cache.
func (s *Station) Cache() *cache.Cache { return s.cache }

// Catalog returns the catalog the station serves.
func (s *Station) Catalog() *catalog.Catalog { return s.cfg.Catalog }

// RunTick advances one time unit: server updates, policy decision, the
// decided downloads, and request service.
func (s *Station) RunTick(tick int, reqs []client.Request) (TickResult, error) {
	return s.ServeTick(tick, reqs, s.cfg.Server.Tick(tick))
}

// ServeTick runs the policy and serves requests for a tick whose server
// updates were applied externally (multi-cell deployments share one
// server and tick it once, then call ServeTick on every cell's station).
//
// Concurrency contract: ServeTick on DISTINCT stations may run
// concurrently provided each station owns its Cache, Policy, and
// Metrics, and the shared Server's Tick for this tick completed before
// any call starts. The only Server methods ServeTick touches are
// Download and the read-only accessors, which are safe for concurrent
// use; Server.Tick itself and OnUpdate registration are
// coordinator-only operations (OnUpdate wiring is sealed after the
// first Tick and panics thereafter). A single station is NOT safe for
// concurrent ServeTick calls with itself.
func (s *Station) ServeTick(tick int, reqs []client.Request, updated []catalog.ID) (TickResult, error) {
	return s.serveTick(tick, reqs, updated, nil)
}

// ServeTickOutcomes is ServeTick with per-request outcome recording:
// out[i] receives what happened to reqs[i] — including requests refused
// by admission control, which are marked SourceShed at their original
// positions. len(out) must equal len(reqs). The aggregate TickResult is
// bit-identical to the one ServeTick would return: outcome recording is
// a write into the caller's slice per request, nothing more.
func (s *Station) ServeTickOutcomes(tick int, reqs []client.Request, updated []catalog.ID, out []Outcome) (TickResult, error) {
	if len(out) != len(reqs) {
		return TickResult{Tick: tick}, fmt.Errorf("basestation: %d outcome slots for %d requests", len(out), len(reqs))
	}
	return s.serveTick(tick, reqs, updated, out)
}

// serveTick is the shared tick body. out, when non-nil, receives one
// Outcome per original request.
func (s *Station) serveTick(tick int, reqs []client.Request, updated []catalog.ID, out []Outcome) (TickResult, error) {
	res := TickResult{Tick: tick}
	now := float64(tick)
	res.Updated = len(updated)
	m := s.cfg.Metrics

	// Resilience pre-pass: settle the tick's degradation-ladder rung
	// before any work. An open breaker pins the tick to stale-only
	// service (no policy run, no downloads); admission pressure sheds
	// the lowest-profit requests before the policy ever sees them.
	brk := s.cfg.Breaker
	staleOnly := false
	var tripsBefore, probesBefore, scBefore uint64
	if brk != nil {
		tripsBefore, probesBefore, scBefore = brk.Trips(), brk.Probes(), brk.ShortCircuits()
		staleOnly = brk.State(tick) == resilience.Open
	}
	shedded := false
	if max := s.cfg.Admission.MaxRequestsPerTick; max > 0 && len(reqs) > max {
		reqs = s.shed(reqs, max, &res, out)
		shedded = true
	}

	defer s.resetDownloadedNow()
	if !staleOnly {
		s.view = policy.TickView{
			Tick:     tick,
			Requests: reqs,
			Updated:  updated,
			Cache:    s.cache,
			Catalog:  s.cfg.Catalog,
			Budget:   s.cfg.BudgetPerTick,
		}
		var solveStart time.Time
		if m != nil {
			solveStart = time.Now()
		}
		ids, err := s.cfg.Policy.Decide(&s.view)
		if m != nil {
			m.SolveTime.Observe(time.Since(solveStart).Seconds())
		}
		if err != nil {
			return res, fmt.Errorf("basestation: policy %s: %w", s.cfg.Policy.Name(), err)
		}
		var used int64
		for _, id := range ids {
			if !s.cfg.Catalog.Valid(id) {
				return res, fmt.Errorf("basestation: policy %s chose invalid object %d", s.cfg.Policy.Name(), id)
			}
			if s.downloadedNow[id] || s.failedNow[id] {
				return res, fmt.Errorf("basestation: policy %s chose object %d twice", s.cfg.Policy.Name(), id)
			}
			ok, err := s.download(id, tick, now, &res)
			if err != nil {
				return res, err
			}
			if !ok {
				// Graceful degradation: the download is skipped; requests
				// for the object fall back to the (stale) cached copy.
				s.markFailed(id)
				if m != nil && m.Trace != nil {
					remaining := obs.UnlimitedBudget
					if s.cfg.BudgetPerTick != policy.Unlimited {
						remaining = s.cfg.BudgetPerTick - used
					}
					m.Trace.Record(obs.Decision{
						Tick:            tick,
						Object:          int(id),
						Action:          obs.ActionFailed,
						Weight:          s.cfg.Catalog.Size(id),
						Recency:         s.cache.Recency(id),
						BudgetRemaining: remaining,
					})
				}
				continue
			}
			s.markDownloaded(id)
			used += s.cfg.Catalog.Size(id)
			res.PolicyDownloads++
		}
		if s.cfg.BudgetPerTick != policy.Unlimited && used > s.cfg.BudgetPerTick {
			return res, fmt.Errorf("basestation: policy %s exceeded budget: %d > %d",
				s.cfg.Policy.Name(), used, s.cfg.BudgetPerTick)
		}
		res.DownloadUnits += used
		if m != nil {
			if s.cfg.BudgetPerTick == policy.Unlimited {
				m.BudgetRemaining.Set(float64(obs.UnlimitedBudget))
			} else {
				m.BudgetRemaining.Set(float64(s.cfg.BudgetPerTick - used))
			}
		}
	}

	// Serve the tick's requests. oi is the request's index in the
	// caller's original batch (shedding compacts reqs, admittedIdx maps
	// back), where its outcome is recorded when the caller asked for one.
	for ri, r := range reqs {
		oi := ri
		if shedded {
			oi = s.admittedIdx[ri]
		}
		res.Requests++
		inRange := int(r.Object) >= 0 && int(r.Object) < len(s.downloadedNow)
		if inRange && s.downloadedNow[r.Object] {
			res.ScoreSum += 1
			res.RecencySum += 1
			if m != nil {
				m.ClientScore.Observe(1)
			}
			if out != nil {
				out[oi] = Outcome{Source: SourceDownload, Score: 1, Recency: 1}
			}
			continue
		}
		if e, ok := s.cache.Get(r.Object, now); ok {
			// A stale fallback is a request that wanted a refresh the
			// fetch layer could not deliver: either this object's
			// download was abandoned this tick, or the whole tick is
			// stale-only and the copy has missed master updates.
			stale := (inRange && s.failedNow[r.Object]) || (staleOnly && e.Lag > 0)
			if stale {
				res.StaleFallbacks++
			}
			score := s.cfg.Score(e.Recency, r.Target)
			res.ScoreSum += score
			res.RecencySum += e.Recency
			if m != nil {
				m.ClientScore.Observe(score)
			}
			if out != nil {
				out[oi] = Outcome{Source: SourceCache, Score: score, Recency: e.Recency, Stale: stale}
			}
			continue
		}
		// Cache miss: the object cannot be served from the cache at all.
		// A compulsory download is attempted once per tick; if the fetch
		// layer already gave up on the object this tick, the request
		// scores 0 rather than hammering a down server again.
		if s.cfg.CompulsoryMisses && !staleOnly && !(inRange && s.failedNow[r.Object]) {
			ok, err := s.download(r.Object, tick, now, &res)
			if err != nil {
				return res, err
			}
			if ok {
				s.markDownloaded(r.Object)
				res.MissDownloads++
				res.DownloadUnits += s.cfg.Catalog.Size(r.Object)
				res.ScoreSum += 1
				res.RecencySum += 1
				if m != nil {
					m.ClientScore.Observe(1)
				}
				if out != nil {
					out[oi] = Outcome{Source: SourceDownload, Score: 1, Recency: 1}
				}
				continue
			}
			s.markFailed(r.Object)
		}
		// Without compulsory misses (or when the fetch layer gave up) the
		// request scores 0 (nothing delivered) — both sums gain nothing.
		if m != nil {
			m.ClientScore.Observe(0)
		}
		if out != nil {
			out[oi] = Outcome{Source: SourceMiss}
		}
	}
	// Close out the ladder accounting: the tick's rung is the most
	// degraded condition that held, and the breaker counters advance by
	// whatever this tick's fetch traffic did to them.
	if brk != nil {
		res.BreakerTrips = int(brk.Trips() - tripsBefore)
		res.BreakerProbes = int(brk.Probes() - probesBefore)
		res.ShortCircuits = int(brk.ShortCircuits() - scBefore)
	}
	if staleOnly {
		res.Mode = resilience.ModeStaleOnly
	}
	if res.Shed > 0 {
		res.Mode = resilience.ModeShed
	}
	if m != nil {
		s.observeTick(&res)
	}
	return res, nil
}

// shed drops the lowest-profit requests so at most max remain, keeping
// the survivors in their original order. Profit is the knapsack gain of
// refreshing the requested object (1 − the score its cached copy would
// earn): a request whose cached copy is already fresh needs the station
// least and is shed first, ties broken by arrival order. Runs entirely
// against reusable scratch. out, when non-nil, gets SourceShed recorded
// at every dropped request's original index; admittedIdx maps each
// survivor back to its original position.
func (s *Station) shed(reqs []client.Request, max int, res *TickResult, out []Outcome) []client.Request {
	n := len(reqs)
	if cap(s.shedProfit) < n {
		s.shedProfit = make([]float64, 0, n)
		s.shedFlag = make([]bool, 0, n)
		s.shedOrder.idx = make([]int, 0, n)
	}
	s.shedProfit = s.shedProfit[:n]
	s.shedFlag = s.shedFlag[:n]
	s.shedOrder.idx = s.shedOrder.idx[:n]
	for i, r := range reqs {
		s.shedProfit[i] = 1 - s.cfg.Score(s.cache.Recency(r.Object), r.Target)
		s.shedFlag[i] = false
		s.shedOrder.idx[i] = i
	}
	s.shedOrder.profit = s.shedProfit
	sort.Sort(&s.shedOrder)
	for _, i := range s.shedOrder.idx[:n-max] {
		s.shedFlag[i] = true
		if out != nil {
			out[i] = Outcome{Source: SourceShed}
		}
	}
	res.Shed = n - max
	s.admitted = s.admitted[:0]
	s.admittedIdx = s.admittedIdx[:0]
	for i, r := range reqs {
		if !s.shedFlag[i] {
			s.admitted = append(s.admitted, r)
			s.admittedIdx = append(s.admittedIdx, i)
		}
	}
	return s.admitted
}

// observeTick folds one tick's result into the metrics bundle. Every
// update is an atomic add or a fixed-bucket histogram observation, so the
// instrumented tick stays allocation-free.
func (s *Station) observeTick(res *TickResult) {
	m := s.cfg.Metrics
	m.Ticks.Inc()
	m.Requests.Add(uint64(res.Requests))
	m.ServerUpdates.Add(uint64(res.Updated))
	m.PolicyDownloads.Add(uint64(res.PolicyDownloads))
	m.MissDownloads.Add(uint64(res.MissDownloads))
	m.FailedDownloads.Add(uint64(res.FailedDownloads))
	m.Retries.Add(uint64(res.Retries))
	m.StaleFallbacks.Add(uint64(res.StaleFallbacks))
	m.DownloadUnits.Add(uint64(res.DownloadUnits))
	m.TickBytes.Observe(float64(res.DownloadUnits))
	m.ShedRequests.Add(uint64(res.Shed))
	m.ShortCircuits.Add(uint64(res.ShortCircuits))
	m.BreakerTrips.Add(uint64(res.BreakerTrips))
	m.BreakerProbes.Add(uint64(res.BreakerProbes))
	switch res.Mode {
	case resilience.ModeStaleOnly:
		m.DegradedTicks.Inc()
	case resilience.ModeShed:
		m.ShedTicks.Inc()
	}
	m.ServiceMode.Set(float64(res.Mode))
	if b := s.cfg.Breaker; b != nil {
		m.BreakerState.Set(float64(b.State(res.Tick)))
	}
}

// Run executes ticks [start, start+n) with requests drawn from gen (which
// may be nil for request-free background runs), accumulating totals.
func (s *Station) Run(start, n int, gen *client.Generator) (Totals, error) {
	var totals Totals
	for tick := start; tick < start+n; tick++ {
		var reqs []client.Request
		if gen != nil {
			reqs = gen.Tick(tick)
		}
		res, err := s.RunTick(tick, reqs)
		if err != nil {
			return totals, err
		}
		totals.Add(res)
	}
	return totals, nil
}

// download fetches one object into the cache. With no Fetcher installed
// it is the paper's ideal path: a direct server download that always
// succeeds. With a Fetcher it retries per the RetryConfig (capped
// exponential backoff, per-download timeout) and reports ok=false when
// the download was abandoned, updating the tick's fault counters.
func (s *Station) download(id catalog.ID, tick int, now float64, res *TickResult) (bool, error) {
	if s.cfg.Fetcher == nil {
		version, size := s.cfg.Server.Download(id)
		return true, s.cache.Put(id, size, version, now)
	}
	// The breaker gates each download once, not each attempt: a refusal
	// short-circuits straight to the stale-fallback path at zero
	// simulated cost (no attempts, no backoff, no timeout burn), and is
	// counted as a short-circuit — not a failed download.
	if s.cfg.Breaker != nil && !s.cfg.Breaker.Allow(tick) {
		return false, nil
	}
	elapsed := 0.0
	backoff := s.cfg.Retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		version, size, latency, err := s.cfg.Fetcher.Fetch(id, tick)
		elapsed += latency
		timedOut := s.cfg.Retry.Timeout > 0 && elapsed > s.cfg.Retry.Timeout
		if err == nil && !timedOut {
			res.FetchLatency += elapsed
			if m := s.cfg.Metrics; m != nil {
				m.FetchLatency.Observe(elapsed)
			}
			if s.cfg.Breaker != nil {
				s.cfg.Breaker.OnSuccess(tick)
			}
			return true, s.cache.Put(id, size, version, now)
		}
		if timedOut || attempt >= s.cfg.Retry.MaxAttempts {
			res.FailedDownloads++
			res.FetchLatency += elapsed
			if m := s.cfg.Metrics; m != nil {
				m.FetchLatency.Observe(elapsed)
			}
			if s.cfg.Breaker != nil {
				s.cfg.Breaker.OnFailure(tick)
			}
			return false, nil
		}
		res.Retries++
		elapsed += backoff
		backoff *= 2
		if s.cfg.Retry.MaxBackoff > 0 && backoff > s.cfg.Retry.MaxBackoff {
			backoff = s.cfg.Retry.MaxBackoff
		}
	}
}

// directFetch is the fault-free fetch path: a direct server download
// that always succeeds at zero simulated cost.
type directFetch struct{ srv *server.Server }

// Fetch implements Fetcher.
func (d directFetch) Fetch(id catalog.ID, _ int) (uint64, int64, float64, error) {
	version, size := d.srv.Download(id)
	return version, size, 0, nil
}

// markDownloaded flags id as fetched during the current tick and records it
// for the end-of-tick reset.
func (s *Station) markDownloaded(id catalog.ID) {
	s.downloadedNow[id] = true
	s.downloadedIDs = append(s.downloadedIDs, id)
}

// markFailed flags id as abandoned by the fetch layer this tick.
func (s *Station) markFailed(id catalog.ID) {
	s.failedNow[id] = true
	s.failedIDs = append(s.failedIDs, id)
}

// resetDownloadedNow clears this tick's download and failure flags in
// O(downloads + failures).
func (s *Station) resetDownloadedNow() {
	for _, id := range s.downloadedIDs {
		s.downloadedNow[id] = false
	}
	s.downloadedIDs = s.downloadedIDs[:0]
	for _, id := range s.failedIDs {
		s.failedNow[id] = false
	}
	s.failedIDs = s.failedIDs[:0]
}
