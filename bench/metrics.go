package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"mobicache/internal/loadgen"
	"mobicache/internal/obs"
)

// pct is loadgen's exact nearest-rank percentile of unsorted samples,
// with 0 instead of NaN for no samples (JSON has no NaN).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return loadgen.Percentile(sorted, q)
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

// windows is how many equal time windows a phase is cut into for the
// statistics reported as a median over windows: a burst of noise from
// elsewhere on the machine then moves one window, not the result.
const windows = 5

// windowMedian groups samples by their time in a phase of length d
// into equal windows and returns the median over windows of stat on
// each window's values. Samples at or after d are dropped.
func windowMedian(d time.Duration, at []time.Duration, vals []float64, stat func([]float64) float64) float64 {
	groups := make([][]float64, windows)
	for i, t := range at {
		if k := int(t * windows / d); k >= 0 && k < windows {
			groups[k] = append(groups[k], vals[i])
		}
	}
	per := make([]float64, windows)
	for k, g := range groups {
		per[k] = stat(g)
	}
	return median(per)
}

// rateMedian is the median over the windows of a phase of length d of
// the events per second in each window.
func rateMedian(d time.Duration, at []time.Duration) float64 {
	perSecond := float64(windows) / d.Seconds()
	return windowMedian(d, at, make([]float64, len(at)), func(xs []float64) float64 { return float64(len(xs)) * perSecond })
}

// parseExposition reads Prometheus text exposition (what stationd's
// /metrics serves) into a map from full series name, labels included,
// to value. Comment lines are skipped.
func parseExposition(text string) (map[string]float64, error) {
	series := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", i+1, err)
		}
		series[line[:sp]] = v
	}
	return series, nil
}

// histogram is a cumulative-bucket histogram: cum[i] counts samples
// <= bounds[i], and the last bound is +Inf.
type histogram struct {
	bounds     []float64
	cum        []float64
	sum, count float64
}

// histogramOf extracts an unlabelled histogram family from parsed
// exposition series.
func histogramOf(series map[string]float64, family string) (histogram, error) {
	var h histogram
	prefix := family + `_bucket{le="`
	type bucket struct{ le, n float64 }
	var bs []bucket
	for name, v := range series {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, `"}`) {
			continue
		}
		le, err := strconv.ParseFloat(name[len(prefix):len(name)-2], 64)
		if err != nil {
			return h, fmt.Errorf("histogram %s: bucket %q: %w", family, name, err)
		}
		bs = append(bs, bucket{le, v})
	}
	if len(bs) == 0 {
		return h, fmt.Errorf("histogram %s not found", family)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		h.bounds = append(h.bounds, b.le)
		h.cum = append(h.cum, b.n)
	}
	h.sum = series[family+"_sum"]
	h.count = series[family+"_count"]
	return h, nil
}

// snapshotHistogram converts an obs snapshot histogram (the per-run
// metrics.json format) into a histogram.
func snapshotHistogram(s obs.HistogramSnapshot) histogram {
	h := histogram{sum: s.Sum, count: float64(s.Count)}
	for _, b := range s.Buckets {
		le := b.LE
		if le == math.MaxFloat64 {
			le = math.Inf(1)
		}
		h.bounds = append(h.bounds, le)
		h.cum = append(h.cum, float64(b.Count))
	}
	return h
}

// plus returns h+o, for merging histograms of one layout; the zero
// histogram takes o's layout.
func (h histogram) plus(o histogram) histogram { return h.combine(o, 1) }

// delta is the growth from before to h.
func (h histogram) delta(before histogram) histogram { return h.combine(before, -1) }

func (h histogram) combine(o histogram, sign float64) histogram {
	if h.bounds == nil {
		h = histogram{bounds: o.bounds, cum: make([]float64, len(o.cum))}
	}
	out := histogram{bounds: h.bounds, cum: make([]float64, len(h.cum)),
		sum: h.sum + sign*o.sum, count: h.count + sign*o.count}
	for i := range h.cum {
		out.cum[i] = h.cum[i] + sign*o.cum[i]
	}
	return out
}

func (h histogram) mean() float64 { return ratio(h.sum, h.count) }

// quantile estimates the q-quantile as Prometheus' histogram_quantile
// does: find the bucket holding rank q·count and interpolate linearly
// inside it (the first bucket starts at 0; a rank in the +Inf bucket
// returns the largest finite bound).
func (h histogram) quantile(q float64) float64 {
	if h.count <= 0 || len(h.cum) == 0 {
		return 0
	}
	rank := q * h.count
	prevBound, prevCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.bounds[i], 1) {
				return prevBound
			}
			if c == prevCum {
				return h.bounds[i]
			}
			return prevBound + (h.bounds[i]-prevBound)*(rank-prevCum)/(c-prevCum)
		}
		prevBound, prevCum = h.bounds[i], c
	}
	return prevBound
}
