package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"mobicache"
	"mobicache/internal/loadgen"
	"mobicache/internal/rng"
	"mobicache/internal/workload"
)

const (
	selectRate    = 100 // selects per second across both connections
	selectBudget  = 2500
	selectUpdates = 500 // objects per update post after each select
	selectPool    = 64  // distinct pre-encoded request batches
	selectLimit   = 50 * time.Millisecond
)

// selectInputs is the sidecar workload's generated input: a paper
// Table 1 catalog, a pool of request batches (one request per client,
// objects by the instance's request counts, targets from a stream), and
// a pool of update lists.
type selectInputs struct {
	sizes     []int64
	batches   [][]mobicache.Request
	bodies    [][]byte
	updates   [][]byte
	requested []bool // the objects every batch requests
}

func newSelectInputs(seed uint64) (*selectInputs, error) {
	inst, err := workload.GenInstance(workload.PaperSolutionSpace(rng.None, rng.None, false, seed))
	if err != nil {
		return nil, err
	}
	n := len(inst.Sizes)
	targets, err := loadgen.NewStream(loadgen.StreamConfig{Objects: n, TargetLo: 0.5, TargetHi: 1, Seed: seed*64 + 32})
	if err != nil {
		return nil, err
	}
	updates, err := loadgen.NewStream(loadgen.StreamConfig{Objects: n, Seed: seed*64 + 33})
	if err != nil {
		return nil, err
	}
	in := &selectInputs{sizes: make([]int64, n), requested: make([]bool, n)}
	for i, s := range inst.Sizes {
		in.sizes[i] = int64(s)
		in.requested[i] = inst.NumRequests[i] > 0
	}
	for b := 0; b < selectPool; b++ {
		reqs := make([]mobicache.Request, 0, inst.TotalClients())
		for o, k := range inst.NumRequests {
			for j := 0; j < k; j++ {
				reqs = append(reqs, mobicache.Request{Client: len(reqs), Object: mobicache.ObjectID(o), Target: targets.Next().Target})
			}
		}
		in.batches = append(in.batches, reqs)
		in.bodies = append(in.bodies, mustJSON(map[string]any{"requests": reqs, "budget": selectBudget}))
		ids := make([]mobicache.ObjectID, selectUpdates)
		for j := range ids {
			ids[j] = updates.Next().Object
		}
		in.updates = append(in.updates, mustJSON(objectsBody{Objects: ids}))
	}
	return in, nil
}

// selectResponse mirrors stationd's POST /v1/select answer.
type selectResponse struct {
	Download      []mobicache.ObjectID `json:"download"`
	FromCache     []mobicache.ObjectID `json:"from_cache"`
	DownloadUnits int64                `json:"download_units"`
	AverageScore  float64              `json:"average_score"`
}

// checkPlan verifies one select answer: within budget, the two lists
// disjoint and together exactly the requested objects, and the reported
// units and score consistent.
func (in *selectInputs) checkPlan(p selectResponse) error {
	if p.DownloadUnits > selectBudget {
		return fmt.Errorf("download_units %d over budget %d", p.DownloadUnits, selectBudget)
	}
	seen := make([]bool, len(in.sizes))
	var units int64
	for li, list := range [][]mobicache.ObjectID{p.Download, p.FromCache} {
		for _, id := range list {
			if int(id) < 0 || int(id) >= len(seen) {
				return fmt.Errorf("object %d outside the catalog", id)
			}
			if seen[id] {
				return fmt.Errorf("object %d listed twice (download and from_cache must be disjoint)", id)
			}
			seen[id] = true
			if li == 0 {
				units += in.sizes[id]
			}
		}
	}
	for o, req := range in.requested {
		if req != seen[o] {
			return fmt.Errorf("object %d: requested %v, planned %v", o, req, seen[o])
		}
	}
	if units != p.DownloadUnits {
		return fmt.Errorf("download_units %d, downloads sum to %d", p.DownloadUnits, units)
	}
	if p.AverageScore < 0 || p.AverageScore > 1+1e-9 {
		return fmt.Errorf("average_score %v outside [0, 1]", p.AverageScore)
	}
	return nil
}

// selectRec is the outcome of one select op and its follow-up writes.
type selectRec struct {
	ok       bool
	plan     selectResponse
	requests int
	send     time.Duration // select sent to replied
	t        timing
	writes   []time.Duration
}

// runSelect drives one plain stationd as a selection sidecar: each op
// posts a 5,000-request batch to /v1/select, then reports the plan's
// downloads on /v1/fetched and a list of master updates on
// /v1/updates, on the same connection.
func runSelect(ctx context.Context, rc runConfig) (*result, error) {
	res := newResult()
	in, err := newSelectInputs(rc.seed)
	if err != nil {
		return nil, err
	}
	openDur := rc.dur * 2 / 3
	closedDur := rc.dur - openDur
	catalog := mustJSON(map[string][]int64{"sizes": in.sizes})
	all := make([]mobicache.ObjectID, len(in.sizes))
	for i := range all {
		all[i] = mobicache.ObjectID(i)
	}
	fetchedAll := mustJSON(objectsBody{Objects: all})

	conns := []*http.Client{conn(), conn()}
	f, setupS, err := timedSetups(setups, func() (fleet, error) {
		f, err := startFleet(ctx, 1, conns, func([]string, int) []string { return []string{"-solver", "dp"} })
		if err != nil {
			return nil, err
		}
		// The station starts with every object cached fresh.
		for _, body := range []struct {
			path string
			b    []byte
		}{{"/v1/catalog", catalog}, {"/v1/fetched", fetchedAll}} {
			if err := post(conns[0], f[0].url+body.path, body.b, nil); err != nil {
				f.stop()
				return nil, err
			}
		}
		return f, nil
	}, fleet.stop)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	res.e2e["setup_s"] = setupS
	url := f[0].url

	checks := []*result{newResult(), newResult()}
	recs := make([][]selectRec, len(conns))
	// Worker w's i-th op is global op 2i+w; it uses batch and update
	// list (2i+w) mod selectPool.
	exec := func(w, i int, due time.Duration, clk clock, base time.Time) time.Duration {
		c, b := conns[w], (2*i+w)%selectPool
		rec := selectRec{requests: len(in.batches[b])}
		sent := clk.now()
		err := post(c, url+"/v1/select", in.bodies[b], &rec.plan)
		replied := clk.now()
		rec.send = replied - sent
		if err == nil {
			err = in.checkPlan(rec.plan)
		}
		rec.ok = err == nil
		checks[w].check(rec.ok, "select batch %d: %v", b, err)
		id := rc.tr.reserve()
		rc.tr.add("send", id, id, base.Add(sent), base.Add(replied))
		prev := replied
		for _, wr := range []struct {
			name string
			body []byte
		}{{"fetched", mustJSON(objectsBody{Objects: rec.plan.Download})}, {"updates", in.updates[b]}} {
			err := post(c, url+"/v1/"+wr.name, wr.body, nil)
			done := clk.now()
			checks[w].check(err == nil, "%s after batch %d: %v", wr.name, b, err)
			if err == nil {
				rec.writes = append(rec.writes, done-prev)
			}
			rc.tr.add(wr.name, id, id, base.Add(prev), base.Add(done))
			prev = done
		}
		rc.tr.addAs(id, "request", 0, id, base.Add(due), base.Add(prev))
		recs[w] = append(recs[w], rec)
		return replied
	}
	perConn := time.Duration(float64(time.Second) * float64(len(conns)) / selectRate)
	dues := func(w int) []time.Duration {
		d := make([]time.Duration, int(openDur.Seconds()*selectRate)/len(conns))
		for i := range d {
			d[i] = time.Duration(i)*perConn + time.Duration(w)*perConn/2
		}
		return d
	}
	phase := func(open bool, d time.Duration) ([]selectRec, phaseRun) {
		recs = make([][]selectRec, len(conns))
		run := runPhase(ctx, len(conns), open, d, dues, exec)
		var out []selectRec
		for w := range recs {
			for i := range run.ts[w] {
				recs[w][i].t = run.ts[w][i]
			}
			out = append(out, recs[w]...)
		}
		return out, run
	}

	rc.tr.begin(time.Now())
	before, err := scrape(conns[0], url)
	if err != nil {
		return nil, err
	}
	open, openRun := phase(true, openDur)
	after, err := scrape(conns[0], url)
	if err != nil {
		return nil, err
	}
	closed, closedRun := phase(false, closedDur)
	for _, c := range checks {
		res.merge(c)
	}
	h0, err := histogramOf(before, "stationd_select_seconds")
	if err != nil {
		return nil, err
	}
	h1, err := histogramOf(after, "stationd_select_seconds")
	if err != nil {
		return nil, err
	}
	deriveSelect(res, open, openRun, closed, closedRun, h1.delta(h0))

	// With traffic stopped, the daemon must select exactly what the
	// library selects from the daemon's own recency state.
	var state struct {
		Recencies []float64 `json:"recencies"`
	}
	var got selectResponse
	err = get(conns[0], url+"/v1/state", &state)
	if err == nil {
		err = post(conns[0], url+"/v1/select", in.bodies[0], &got)
	}
	if err == nil {
		err = matchLibrary(in, state.Recencies, got)
	}
	res.check(err == nil, "final select against the library: %v", err)
	return res, nil
}

// matchLibrary compares a daemon plan with mobicache's own selection of
// batch 0 over the same recencies, bit for bit.
func matchLibrary(in *selectInputs, recencies []float64, got selectResponse) error {
	sel, err := mobicache.NewSelector(in.sizes)
	if err != nil {
		return err
	}
	want, err := sel.Select(in.batches[0], recencies, selectBudget)
	if err != nil {
		return err
	}
	same := func(a, b []mobicache.ObjectID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(got.Download, want.Download) || !same(got.FromCache, want.FromCache) ||
		got.DownloadUnits != want.DownloadUnits || got.AverageScore != want.AverageScore() {
		return fmt.Errorf("daemon planned %d downloads (%d units, score %v), library %d (%d units, score %v)",
			len(got.Download), got.DownloadUnits, got.AverageScore,
			len(want.Download), want.DownloadUnits, want.AverageScore())
	}
	return nil
}

// deriveSelect computes the sidecar metrics from the open and closed
// phases and the growth of the daemon's solve-time histogram over the
// open phase.
func deriveSelect(res *result, open []selectRec, openRun phaseRun, closed []selectRec, closedRun phaseRun, solve histogram) {
	var lat, send, score, writes, planUnits []float64
	var due, inLimit []time.Duration
	var units, requests, cached, planned float64
	for _, r := range open {
		for _, w := range r.writes {
			writes = append(writes, w.Seconds()*1e3)
		}
		if !r.ok {
			continue
		}
		lat = append(lat, r.t.latency().Seconds()*1e3)
		due = append(due, r.t.due)
		send = append(send, r.send.Seconds()*1e3)
		score = append(score, r.plan.AverageScore)
		planUnits = append(planUnits, float64(r.plan.DownloadUnits))
		units += float64(r.plan.DownloadUnits)
		requests += float64(r.requests)
		cached += float64(len(r.plan.FromCache))
		planned += float64(len(r.plan.FromCache) + len(r.plan.Download))
	}
	for _, r := range closed {
		if r.ok && r.t.latency() <= selectLimit {
			inLimit = append(inLimit, r.t.replied)
		}
	}
	res.note("open phase: %d selects in %.1fs; closed phase: %d selects within %v in %.1fs",
		len(lat), openRun.elapsed.Seconds(), len(inLimit), selectLimit, closedRun.elapsed.Seconds())
	res.e2e["p50_ms"] = pct(lat, 0.50)
	res.e2e["p99_ms"] = windowMedian(openRun.dur, due, lat, func(xs []float64) float64 { return pct(xs, 0.99) })
	res.e2e["capacity_rps"] = rateMedian(closedRun.dur, inLimit)
	res.e2e["mean_score"] = mean(score)
	res.e2e["units_per_req"] = ratio(units, requests)

	res.layer["bench.late_p99_ms"] = pct(durationsMs(openRun.lateness), 0.99)
	res.layer["stationd.select_overhead_ms"] = mean(send) - solve.mean()*1e3
	res.layer["stationd.write_p50_ms"] = pct(writes, 0.50)
	res.layer["core.solve_mean_ms"] = solve.mean() * 1e3
	res.layer["core.solve_p99_ms"] = solve.quantile(0.99) * 1e3
	res.layer["core.plan_units_mean"] = mean(planUnits)
	res.layer["station.hit_ratio"] = ratio(cached, planned)
}
