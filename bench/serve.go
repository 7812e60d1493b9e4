package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mobicache"
	"mobicache/internal/loadgen"
)

// serveParams is one serving-fleet traffic mix.
type serveParams struct {
	objects    int           // catalog size; object i has size 1 + i%4
	zipf       float64       // popularity skew (0 = uniform)
	rate       float64       // reads per second across the fleet
	updateRate float64       // update posts per second on each connection (0 = none)
	updateSize int           // objects per update post
	warmup     time.Duration // unmeasured open-loop lead-in (0 = measure from the first request)
}

var (
	// serveHot: a small zipf-hot catalog with updates beside the reads.
	// With one request in flight per station, every window waits out
	// the timer, so the timer and the handler set the latency.
	serveHot = serveParams{objects: 2000, zipf: 1.1, rate: 200, updateRate: 10, updateSize: 20, warmup: 2 * time.Second}
	// serveCold: uniform access over a catalog far larger than the run
	// reads, so nearly every request misses and about half probe a peer.
	serveCold = serveParams{objects: 50000, rate: 200}
)

const (
	fleetSize = 2  // stations, and load-generator connections (one per station)
	setups    = 7  // set-ups per run; setup_s is their median
	probeRate = 10 // traced runs probe /v1/peer/object after every probeRate-th read

	serveLimit = 25 * time.Millisecond // capacity counts only answers within this latency
	// closedRate bounds how many ops are drawn for the closed phase, per
	// connection and second; stations answer far fewer.
	closedRate = 1000
)

// serveOp is one operation of a serving worker: a read (POST
// /v1/request) or an update post (POST /v1/updates).
type serveOp struct {
	due    time.Duration
	update bool
	object int // the read's object
	body   []byte
}

// serveOps draws worker w's next n reads from its streams, with an
// update post after every k-th read, where k keeps the mix's
// read-to-update ratio. Read i is due at (i + w/fleetSize) read
// intervals, so the stations' windows interleave instead of closing
// together; an update is due a quarter interval after its read.
func serveOps(p serveParams, reads, updates *loadgen.Stream, w, n int) []serveOp {
	iv := time.Duration(float64(time.Second) * fleetSize / p.rate)
	k := 0
	if p.updateRate > 0 {
		k = int(p.rate / fleetSize / p.updateRate)
	}
	var ops []serveOp
	for i := 0; i < n; i++ {
		due := time.Duration((float64(i) + float64(w)/fleetSize) * float64(iv))
		r := reads.Next()
		ops = append(ops, serveOp{due: due, object: int(r.Object),
			body: mustJSON(wireRequest{Client: r.Client, Object: int(r.Object), Target: r.Target})})
		if k > 0 && (i+1)%k == 0 {
			ids := make([]mobicache.ObjectID, p.updateSize)
			for j := range ids {
				ids[j] = updates.Next().Object
			}
			ops = append(ops, serveOp{due: due + iv/4, update: true, body: mustJSON(objectsBody{Objects: ids})})
		}
	}
	return ops
}

type wireRequest struct {
	Client int     `json:"client"`
	Object int     `json:"object"`
	Target float64 `json:"target"`
}

// objectsBody is the body of /v1/updates and /v1/fetched.
type objectsBody struct {
	Objects []mobicache.ObjectID `json:"objects"`
}

// serveResponse mirrors stationd's POST /v1/request answer.
type serveResponse struct {
	Window      int     `json:"window"`
	Source      string  `json:"source"`
	Peer        bool    `json:"peer"`
	Score       float64 `json:"score"`
	Recency     float64 `json:"recency"`
	Stale       bool    `json:"stale"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// serveStatus is the counter part of GET /v1/serve/status.
type serveStatus struct {
	Windows           float64 `json:"windows"`
	DroppedWindows    float64 `json:"dropped_windows"`
	WindowRequests    float64 `json:"window_requests"`
	PeerFetches       float64 `json:"peer_fetches"`
	PeerHits          float64 `json:"peer_hits"`
	PeerFailures      float64 `json:"peer_failures"`
	PeerShortCircuits float64 `json:"peer_short_circuits"`
}

func (s serveStatus) minus(o serveStatus) serveStatus { return s.combine(o, -1) }
func (s serveStatus) plus(o serveStatus) serveStatus  { return s.combine(o, 1) }

func (s serveStatus) combine(o serveStatus, sign float64) serveStatus {
	return serveStatus{s.Windows + sign*o.Windows, s.DroppedWindows + sign*o.DroppedWindows,
		s.WindowRequests + sign*o.WindowRequests, s.PeerFetches + sign*o.PeerFetches, s.PeerHits + sign*o.PeerHits,
		s.PeerFailures + sign*o.PeerFailures, s.PeerShortCircuits + sign*o.PeerShortCircuits}
}

// serveRec is the outcome of one serving op.
type serveRec struct {
	update  bool
	ok      bool // 200 with a decodable, valid answer
	station int
	object  int
	resp    serveResponse
	send    time.Duration // sent to replied
	t       timing
	probe   time.Duration // traced runs: the probe after this read, 0 if none
}

// serveWorker owns one connection and sends every op to one station.
type serveWorker struct {
	station int
	c       *http.Client
	url     string
	tr      *tracer
	reads   int
	checks  *result
}

// exec performs one op. due only places the traced request span.
func (wk *serveWorker) exec(op serveOp, due time.Duration, clk clock, base time.Time) (serveRec, time.Duration) {
	rec := serveRec{update: op.update, station: wk.station, object: op.object}
	sent := clk.now()
	if op.update {
		err := post(wk.c, wk.url+"/v1/updates", op.body, nil)
		replied := clk.now()
		rec.ok, rec.send = err == nil, replied-sent
		wk.checks.check(rec.ok, "station %d: updates: %v", wk.station, err)
		id := wk.tr.add("update", 0, 0, base.Add(due), base.Add(replied))
		wk.tr.add("send", id, id, base.Add(sent), base.Add(replied))
		return rec, replied
	}
	err := post(wk.c, wk.url+"/v1/request", op.body, &rec.resp)
	replied := clk.now()
	rec.send = replied - sent
	rec.ok = err == nil && (rec.resp.Source == "download" || rec.resp.Source == "cache") &&
		rec.resp.Score >= 0 && rec.resp.Score <= 1
	wk.checks.check(rec.ok, "station %d: request for object %d: err %v, answer %+v", wk.station, op.object, err, rec.resp)
	if wk.tr != nil {
		wait := time.Duration(rec.resp.WaitSeconds * float64(time.Second))
		id := wk.tr.add("request", 0, 0, base.Add(due), base.Add(replied))
		send := wk.tr.add("send", id, id, base.Add(sent), base.Add(replied))
		// The server reports only the window's length; the window is
		// placed against the reply, as nothing but encoding follows it.
		wk.tr.add("window", send, id, base.Add(replied-wait), base.Add(replied))
		if wk.reads%probeRate == 0 {
			rec.probe = wk.probe(op.object, id, clk, base)
		}
	}
	wk.reads++
	return rec, replied
}

// probe times one GET /v1/peer/object round trip, the request a peer
// sends to fetch a cooperative copy. 200 (cached) and 404 (absent) are
// both answers.
func (wk *serveWorker) probe(object int, req uint64, clk clock, base time.Time) time.Duration {
	t0 := clk.now()
	resp, err := wk.c.Get(fmt.Sprintf("%s/v1/peer/object?id=%d", wk.url, object))
	t1 := clk.now()
	ok := err == nil
	if ok {
		drain(resp)
		ok = resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotFound
	}
	wk.checks.check(ok, "station %d: peer probe of object %d: %v", wk.station, object, err)
	wk.tr.add("probe", req, req, base.Add(t0), base.Add(t1))
	return t1 - t0
}

// servePhase runs one phase of every worker's ops (see runPhase) and
// returns their records in worker order.
func servePhase(ctx context.Context, workers []*serveWorker, ops [][]serveOp, open bool, d time.Duration) ([]serveRec, phaseRun) {
	recs := make([][]serveRec, len(workers))
	run := runPhase(ctx, len(workers), open, d,
		func(w int) []time.Duration {
			dues := make([]time.Duration, len(ops[w]))
			for i, op := range ops[w] {
				dues[i] = op.due
			}
			return dues
		},
		func(w, i int, due time.Duration, clk clock, base time.Time) time.Duration {
			rec, replied := workers[w].exec(ops[w][i%len(ops[w])], due, clk, base)
			recs[w] = append(recs[w], rec)
			return replied
		})
	var out []serveRec
	for w := range recs {
		for i := range run.ts[w] {
			recs[w][i].t = run.ts[w][i]
		}
		out = append(out, recs[w]...)
	}
	return out, run
}

// statuses reads every station's /v1/serve/status.
func statuses(f fleet, conns []*http.Client) ([]serveStatus, error) {
	out := make([]serveStatus, len(f))
	for i, st := range f {
		if err := get(conns[i], st.url+"/v1/serve/status", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sumStatus(ss []serveStatus) serveStatus {
	var t serveStatus
	for _, s := range ss {
		t = t.plus(s)
	}
	return t
}

// runServe runs one serving workload against a fresh 2-station fleet:
// an optional warm-up, the measured open-loop phase (two thirds of the
// run), then the closed-loop capacity phase on the same connections.
func runServe(ctx context.Context, rc runConfig, p serveParams) (*result, error) {
	res := newResult()
	openDur := rc.dur * 2 / 3
	closedDur := rc.dur - openDur
	warmDur := min(p.warmup, openDur/5)

	readsPerPhase := func(d time.Duration) int { return int(d.Seconds() * p.rate / fleetSize) }
	var warmOps, openOps, closedOps [][]serveOp
	for w := 0; w < fleetSize; w++ {
		reads, err := loadgen.NewStream(loadgen.StreamConfig{Objects: p.objects, ZipfS: p.zipf, Clients: 32,
			TargetLo: 0.5, TargetHi: 1, Seed: rc.seed*64 + uint64(2*w)})
		if err != nil {
			return nil, err
		}
		updates, err := loadgen.NewStream(loadgen.StreamConfig{Objects: p.objects, ZipfS: p.zipf,
			Seed: rc.seed*64 + uint64(2*w+1)})
		if err != nil {
			return nil, err
		}
		warmOps = append(warmOps, serveOps(p, reads, updates, w, readsPerPhase(warmDur)))
		openOps = append(openOps, serveOps(p, reads, updates, w, readsPerPhase(openDur)))
		closedOps = append(closedOps, serveOps(p, reads, updates, w, int(closedDur.Seconds()*closedRate)))
	}
	sizes := make([]int64, p.objects)
	for i := range sizes {
		sizes[i] = 1 + int64(i%4)
	}
	catalog := mustJSON(map[string][]int64{"sizes": sizes})

	conns := []*http.Client{conn(), conn()}
	f, setupS, err := timedSetups(setups, func() (fleet, error) {
		f, err := startFleet(ctx, fleetSize, conns, func(urls []string, i int) []string {
			return []string{"-serve", "-self", urls[i], "-peers", strings.Join(urls, ",")}
		})
		if err != nil {
			return nil, err
		}
		for i, st := range f {
			if err := post(conns[i], st.url+"/v1/catalog", catalog, nil); err != nil {
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

	workers := make([]*serveWorker, fleetSize)
	for w := range workers {
		workers[w] = &serveWorker{station: w, c: conns[w], url: f[w].url, tr: rc.tr, checks: newResult()}
	}
	rc.tr.begin(time.Now())
	s0, err := statuses(f, conns)
	if err != nil {
		return nil, err
	}
	warm, _ := servePhase(ctx, workers, warmOps, true, warmDur)
	s1, err := statuses(f, conns)
	if err != nil {
		return nil, err
	}
	open, openRun := servePhase(ctx, workers, openOps, true, openDur)
	s2, err := statuses(f, conns)
	if err != nil {
		return nil, err
	}
	closed, closedRun := servePhase(ctx, workers, closedOps, false, closedDur)
	s3, err := statuses(f, conns)
	if err != nil {
		return nil, err
	}
	for _, wk := range workers {
		res.merge(wk.checks)
	}

	// Every answered read passed through exactly one window of its
	// station, and no window failed.
	answered := make([]float64, fleetSize)
	for _, ph := range [][]serveRec{warm, open, closed} {
		for _, r := range ph {
			if !r.update && r.resp.Source != "" {
				answered[r.station]++
			}
		}
	}
	for i := range f {
		d := s3[i].minus(s0[i])
		res.check(d.WindowRequests == answered[i], "station %d: window_requests grew by %v, %v requests answered",
			i, d.WindowRequests, answered[i])
		res.check(d.DroppedWindows == 0, "station %d: %v dropped windows", i, d.DroppedWindows)
	}
	deriveServe(res, sizes, open, openRun, closed, closedRun, sumStatus(s2).minus(sumStatus(s1)), sumStatus(s3).minus(sumStatus(s0)))
	return res, nil
}

// deriveServe computes the serving metrics from the measured open
// phase, the closed capacity phase, and the fleet's status growth over
// the open phase (dOpen) and the whole run (dRun).
func deriveServe(res *result, sizes []int64, open []serveRec, openRun phaseRun, closed []serveRec, closedRun phaseRun, dOpen, dRun serveStatus) {
	var lat, score, overhead, wait, writes, probes []float64
	var due, inLimit []time.Duration
	var hits, stale, units float64
	type download struct{ station, window, object int }
	downloaded := map[download]bool{}
	for _, r := range open {
		if !r.ok {
			continue
		}
		if r.update {
			writes = append(writes, r.send.Seconds()*1e3)
			continue
		}
		lat = append(lat, r.t.latency().Seconds()*1e3)
		due = append(due, r.t.due)
		score = append(score, r.resp.Score)
		wait = append(wait, r.resp.WaitSeconds*1e3)
		overhead = append(overhead, r.send.Seconds()*1e3-r.resp.WaitSeconds*1e3)
		if r.probe > 0 {
			probes = append(probes, r.probe.Seconds()*1e3)
		}
		switch r.resp.Source {
		case "cache":
			hits++
		case "download":
			// Requests for one object in one window share its download.
			d := download{r.station, r.resp.Window, r.object}
			if !downloaded[d] {
				downloaded[d] = true
				units += float64(sizes[r.object])
			}
		}
		if r.resp.Recency < 1 {
			stale++
		}
	}
	for _, r := range closed {
		if r.ok && !r.update && r.t.latency() <= serveLimit {
			inLimit = append(inLimit, r.t.replied)
		}
	}
	n := float64(len(lat))
	res.note("open phase: %d reads answered in %.1fs, %d update posts; closed phase: %d reads within %v in %.1fs",
		len(lat), openRun.elapsed.Seconds(), len(writes), len(inLimit), serveLimit, closedRun.elapsed.Seconds())
	res.e2e["p50_ms"] = pct(lat, 0.50)
	res.e2e["p99_ms"] = windowMedian(openRun.dur, due, lat, func(xs []float64) float64 { return pct(xs, 0.99) })
	res.e2e["capacity_rps"] = rateMedian(closedRun.dur, inLimit)
	res.e2e["mean_score"] = mean(score)
	res.e2e["units_per_req"] = ratio(units, n)

	res.layer["bench.late_p99_ms"] = pct(durationsMs(openRun.lateness), 0.99)
	res.layer["stationd.overhead_p50_ms"] = pct(overhead, 0.50)
	res.layer["stationd.write_p50_ms"] = pct(writes, 0.50)
	res.layer["serve.wait_p50_ms"] = pct(wait, 0.50)
	res.layer["serve.wait_p99_ms"] = pct(wait, 0.99)
	res.layer["serve.window_size_mean"] = ratio(dOpen.WindowRequests, dOpen.Windows)
	res.layer["serve.dropped_windows"] = dRun.DroppedWindows
	res.layer["peers.fetches_per_req"] = ratio(dOpen.PeerFetches, n)
	res.layer["peers.hit_ratio"] = ratio(dOpen.PeerHits, dOpen.PeerFetches)
	res.layer["peers.failures"] = dRun.PeerFailures
	res.layer["peers.short_circuits"] = dRun.PeerShortCircuits
	res.layer["peers.probe_p50_ms"] = pct(probes, 0.50)
	res.layer["station.hit_ratio"] = ratio(hits, n)
	res.layer["station.stale_ratio"] = ratio(stale, n)
	res.layer["core.plan_units_mean"] = ratio(units, dOpen.Windows)
}
