package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobicache"
	"mobicache/internal/loadgen"
	"mobicache/internal/obs"
)

// fakeClock advances only when an op "runs" or the generator sleeps;
// every real sleep overshoots by slack, as a late generator would.
type fakeClock struct{ t, slack time.Duration }

func (f *fakeClock) clock() clock {
	return clock{
		now: func() time.Duration { return f.t },
		sleepUntil: func(d time.Duration) {
			if d > f.t {
				f.t = d + f.slack
			}
		},
	}
}

func TestPaceChargesStallToQueuedOps(t *testing.T) {
	fc := &fakeClock{slack: 2 * time.Millisecond}
	dues := []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond}
	service := []time.Duration{50 * time.Millisecond, time.Millisecond, time.Millisecond}
	ts, late := pace(context.Background(), len(dues), func(i int) time.Duration { return dues[i] }, fc.clock(),
		func(i int) time.Duration { fc.t += service[i]; return fc.t })
	// Op 0 sleeps nothing (due 0); op 1 is queued behind op 0's 50ms
	// stall and is charged the 40ms it waited; op 2 is on time again
	// but the generator woke 2ms late.
	wantLat := []time.Duration{50 * time.Millisecond, 41 * time.Millisecond, 3 * time.Millisecond}
	wantLate := []time.Duration{0, 0, 2 * time.Millisecond}
	for i := range ts {
		if got := ts[i].latency(); got != wantLat[i] {
			t.Errorf("op %d latency %v, want %v", i, got, wantLat[i])
		}
		if late[i] != wantLate[i] {
			t.Errorf("op %d lateness %v, want %v", i, late[i], wantLate[i])
		}
	}
}

func TestClosedLoopRunsUntilDeadline(t *testing.T) {
	fc := &fakeClock{}
	ts := closedLoop(context.Background(), 10*time.Millisecond, fc.clock(),
		func(int) time.Duration { fc.t += 3 * time.Millisecond; return fc.t })
	if len(ts) != 4 {
		t.Fatalf("%d ops before a 10ms deadline at 3ms each, want 4", len(ts))
	}
	for i, tm := range ts {
		if tm.latency() != 3*time.Millisecond {
			t.Errorf("op %d latency %v, want the 3ms service time", i, tm.latency())
		}
	}
}

func streams(t *testing.T, seed uint64) (*loadgen.Stream, *loadgen.Stream) {
	t.Helper()
	r, err := loadgen.NewStream(loadgen.StreamConfig{Objects: serveHot.objects, ZipfS: serveHot.zipf, TargetLo: 0.5, TargetHi: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	u, err := loadgen.NewStream(loadgen.StreamConfig{Objects: serveHot.objects, ZipfS: serveHot.zipf, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return r, u
}

func TestServeScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := serveOps(serveHot, nil, nil, 1, 0) // zero reads draw nothing
	if len(a) != 0 {
		t.Fatalf("zero reads gave %d ops", len(a))
	}
	r1, u1 := streams(t, 7)
	r2, u2 := streams(t, 7)
	r3, u3 := streams(t, 8)
	one, two, other := serveOps(serveHot, r1, u1, 1, 40), serveOps(serveHot, r2, u2, 1, 40), serveOps(serveHot, r3, u3, 1, 40)
	if !reflect.DeepEqual(one, two) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(one, other) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 100 reads/s per connection with 10 update posts/s: one post per
	// 10 reads; worker 1 runs half a read interval behind worker 0.
	updates := 0
	for i, op := range one {
		if op.update {
			updates++
		}
		if i > 0 && op.due < one[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, op.due, i-1, one[i-1].due)
		}
	}
	if updates != 4 || one[0].due != 5*time.Millisecond {
		t.Fatalf("%d update posts and first due %v, want 4 and 5ms", updates, one[0].due)
	}
}

func TestSelectInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, err := newSelectInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSelectInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different select inputs")
	}
	var units int64
	for _, s := range a.sizes {
		units += s
	}
	if len(a.sizes) != 500 || units != 5000 || len(a.batches[0]) != 5000 {
		t.Fatalf("%d objects, %d units, %d requests per batch; want Table 1's 500, 5000, 5000",
			len(a.sizes), units, len(a.batches[0]))
	}
}

func TestCheckPlan(t *testing.T) {
	in := &selectInputs{sizes: []int64{2, 3, 4}, requested: []bool{true, true, false}}
	good := selectResponse{Download: []mobicache.ObjectID{1}, FromCache: []mobicache.ObjectID{0}, DownloadUnits: 3, AverageScore: 0.9}
	if err := in.checkPlan(good); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for name, bad := range map[string]selectResponse{
		"overlap":      {Download: []mobicache.ObjectID{1}, FromCache: []mobicache.ObjectID{0, 1}, DownloadUnits: 3},
		"missing":      {Download: []mobicache.ObjectID{1}, DownloadUnits: 3},
		"unrequested":  {Download: []mobicache.ObjectID{1, 2}, FromCache: []mobicache.ObjectID{0}, DownloadUnits: 7},
		"units":        {Download: []mobicache.ObjectID{1}, FromCache: []mobicache.ObjectID{0}, DownloadUnits: 2},
		"over budget":  {Download: []mobicache.ObjectID{1}, FromCache: []mobicache.ObjectID{0}, DownloadUnits: selectBudget + 1},
		"score":        {Download: []mobicache.ObjectID{1}, FromCache: []mobicache.ObjectID{0}, DownloadUnits: 3, AverageScore: 1.5},
		"out of range": {Download: []mobicache.ObjectID{7}, FromCache: []mobicache.ObjectID{0, 1}},
	} {
		if err := in.checkPlan(bad); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
}

// exposition renders a real obs registry, the code behind stationd's
// /metrics, so the parser is tested against the format it must read.
func exposition(t *testing.T, observe ...float64) map[string]float64 {
	t.Helper()
	reg := obs.NewRegistry()
	h := reg.Histogram("stationd_select_seconds", "solve time", obs.SolveTimeBounds)
	c := reg.Counter(`stationd_requests_total{endpoint="select"}`, "requests")
	for _, v := range observe {
		h.Observe(v)
		c.Inc()
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series, err := parseExposition(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func TestHistogramDeltaFromExposition(t *testing.T) {
	before := exposition(t, 5e-6)
	after := exposition(t, 5e-6, 2e-3, 3e-3, 4e-3, 0.5)
	if got := after[`stationd_requests_total{endpoint="select"}`] - before[`stationd_requests_total{endpoint="select"}`]; got != 4 {
		t.Fatalf("counter delta %v, want 4", got)
	}
	h0, err := histogramOf(before, "stationd_select_seconds")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := histogramOf(after, "stationd_select_seconds")
	if err != nil {
		t.Fatal(err)
	}
	d := h1.delta(h0)
	if d.count != 4 || math.Abs(d.mean()-(2e-3+3e-3+4e-3+0.5)/4) > 1e-12 {
		t.Fatalf("delta count %v mean %v", d.count, d.mean())
	}
	// Three of the four new samples sit in (1e-3, 1e-2]: the median
	// interpolates inside that bucket, the p99 inside (0.1, 1].
	if q := d.quantile(0.5); q <= 1e-3 || q > 1e-2 {
		t.Fatalf("p50 %v outside (1e-3, 1e-2]", q)
	}
	if q := d.quantile(0.99); q <= 0.1 || q > 1 {
		t.Fatalf("p99 %v outside (0.1, 1]", q)
	}
	if _, err := histogramOf(after, "absent_seconds"); err == nil {
		t.Fatal("missing family accepted")
	}
	if _, err := parseExposition("novalue\n"); err == nil {
		t.Fatal("line without a value accepted")
	}
}

func TestWindowMedian(t *testing.T) {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	at := []time.Duration{sec(0.5), sec(1.5), sec(1.6), sec(2.5), sec(3.5), sec(4.5), sec(5.5)}
	vals := []float64{1, 2, 10, 3, 4, 5, 100} // the last is past the phase and dropped
	maxOf := func(xs []float64) float64 { return pct(xs, 1) }
	// Window maxima 1, 10, 3, 4, 5: one noisy window does not set the result.
	if got := windowMedian(5*time.Second, at, vals, maxOf); got != 4 {
		t.Fatalf("median of window maxima %v, want 4", got)
	}
	// Events per 1s window: 1, 2, 1, 1, 1.
	if got := rateMedian(5*time.Second, at); got != 1 {
		t.Fatalf("median rate %v, want 1/s", got)
	}
}

// at builds a timing due at the given second with the given latency.
func at(sec float64, latency time.Duration) timing {
	due := time.Duration(sec * float64(time.Second))
	return timing{due: due, replied: due + latency}
}

func TestDeriveServe(t *testing.T) {
	sizes := []int64{1, 2, 3, 4}
	read := func(station, window, object int, source string, tm timing, send time.Duration, wait, recency float64) serveRec {
		return serveRec{ok: true, station: station, object: object, t: tm, send: send,
			resp: serveResponse{Window: window, Source: source, Score: 1, Recency: recency, WaitSeconds: wait}}
	}
	ms6 := 6 * time.Millisecond
	open := []serveRec{
		read(0, 1, 3, "download", at(0, ms6), ms6, 0.005, 1),
		read(0, 1, 3, "download", at(1, ms6), ms6, 0.005, 1), // same window: one download
		read(1, 1, 3, "download", at(2, ms6), ms6, 0.005, 1), // other station: its own
		read(1, 2, 2, "cache", at(3, 8*time.Millisecond), ms6, 0.005, 0.5),
		read(1, 3, 1, "cache", at(4, 9*time.Millisecond), ms6, 0.005, 1),
		{update: true, ok: true, send: 2 * time.Millisecond},
		{ok: false, resp: serveResponse{Source: "miss"}},
	}
	var closed []serveRec
	for s := 0; s < 5; s++ {
		closed = append(closed, read(0, 9, 1, "cache", at(float64(s), 5*time.Millisecond), 0, 0.005, 1))
	}
	closed = append(closed, read(0, 9, 1, "cache", at(1, 30*time.Millisecond), 0, 0.005, 1)) // over the limit
	res := newResult()
	deriveServe(res, sizes, open, phaseRun{dur: 5 * time.Second, lateness: []time.Duration{time.Millisecond}},
		closed, phaseRun{dur: 5 * time.Second},
		serveStatus{Windows: 3, WindowRequests: 5, PeerFetches: 2, PeerHits: 1},
		serveStatus{PeerFailures: 1})
	want := map[string]float64{
		"p50_ms": 6, "p99_ms": 6, "capacity_rps": 1, "mean_score": 1, "units_per_req": 8.0 / 5,
	}
	for k, v := range want {
		if math.Abs(res.e2e[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, res.e2e[k], v)
		}
	}
	wantLayer := map[string]float64{
		"bench.late_p99_ms": 1, "stationd.overhead_p50_ms": 1, "stationd.write_p50_ms": 2,
		"serve.wait_p50_ms": 5, "serve.window_size_mean": 5.0 / 3, "peers.fetches_per_req": 0.4,
		"peers.hit_ratio": 0.5, "peers.failures": 1, "station.hit_ratio": 0.4, "station.stale_ratio": 0.2,
		"core.plan_units_mean": 8.0 / 3,
	}
	for k, v := range wantLayer {
		if math.Abs(res.layer[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, res.layer[k], v)
		}
	}
}

func TestDeriveSelect(t *testing.T) {
	rec := func(tm timing, send time.Duration, units int64, download, cached int) selectRec {
		return selectRec{ok: true, requests: 100, t: tm, send: send, writes: []time.Duration{time.Millisecond},
			plan: selectResponse{DownloadUnits: units, AverageScore: 0.5,
				Download: make([]mobicache.ObjectID, download), FromCache: make([]mobicache.ObjectID, cached)}}
	}
	open := []selectRec{rec(at(0, 4*time.Millisecond), 4*time.Millisecond, 10, 1, 3), rec(at(0.5, 6*time.Millisecond), 5*time.Millisecond, 30, 3, 1)}
	closed := []selectRec{rec(at(0.1, 10*time.Millisecond), 0, 10, 1, 3), rec(at(0.3, time.Second), 0, 10, 1, 3)}
	solve := histogram{bounds: []float64{1e-3, math.Inf(1)}, cum: []float64{2, 2}, sum: 2e-3, count: 2}
	res := newResult()
	deriveSelect(res, open, phaseRun{dur: 5 * time.Second, lateness: []time.Duration{0}}, closed, phaseRun{dur: time.Second}, solve)
	// Both open selects fall in the first of five windows; the other
	// four windows have none, so the median window p99 is 0.
	for k, v := range map[string]float64{"p50_ms": 4, "p99_ms": 0, "capacity_rps": 0, "mean_score": 0.5, "units_per_req": 40.0 / 200} {
		if math.Abs(res.e2e[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, res.e2e[k], v)
		}
	}
	for k, v := range map[string]float64{"stationd.select_overhead_ms": 4.5 - 1, "core.solve_mean_ms": 1,
		"core.plan_units_mean": 20, "station.hit_ratio": 0.5, "stationd.write_p50_ms": 1} {
		if math.Abs(res.layer[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, res.layer[k], v)
		}
	}
}

func TestReportSelectsMetricsByTraceMode(t *testing.T) {
	res := newResult()
	if _, err := reportOf(res, false); err == nil {
		t.Fatal("report without end-to-end metrics accepted")
	}
	for _, m := range endToEnd {
		res.e2e[m.name] = 1
	}
	for traced, specs := range map[bool][]metricSpec{false: endToEnd, true: perLayer} {
		rep, err := reportOf(res, traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Metrics) != len(specs) || !rep.Correct {
			t.Fatalf("traced=%v: %d metrics, correct %v", traced, len(rep.Metrics), rep.Correct)
		}
	}
	res.check(false, "broken")
	if rep, _ := reportOf(res, false); rep.Correct || rep.Failed != 1 || rep.Attempted != 1 {
		t.Fatalf("failed check reported as %+v", rep)
	}
}

// The metric lists printed by the benchmark must be the ones
// BENCHMARK.json declares, in name and unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		code []metricSpec
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the code reports %d", len(c.decl), len(c.code))
		}
		for i, d := range c.decl {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
