package main

import (
	"context"
	"sync"
	"syscall"
	"time"
)

// clock gives pacing a time source: now is the offset from the phase
// start, and sleepUntil blocks until that offset. Tests drive pace with
// a fake clock.
type clock struct {
	now        func() time.Duration
	sleepUntil func(time.Duration)
}

// realClock measures from base. It sleeps with nanosleep because Go's
// runtime timers wake up to a millisecond late on Linux, which would
// show up as generator lateness on every request.
func realClock(base time.Time) clock {
	now := func() time.Duration { return time.Since(base) }
	return clock{
		now: now,
		sleepUntil: func(t time.Duration) {
			if d := t - now(); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the op less late
			}
		},
	}
}

// timing is one paced operation, as offsets from the phase start: when
// it was due and when the reply it is judged by arrived.
type timing struct {
	due, replied time.Duration
}

// latency is charged from the due time: a stalled reply delays every op
// queued behind it on the same connection, and each of them is charged
// that wait.
func (t timing) latency() time.Duration { return t.replied - t.due }

// pace runs ops 0..n-1 in order on one connection, open loop: op i is
// sent at due(i), or as soon as op i-1 has freed the connection if that
// is later. do(i) performs the op and returns when its judged reply
// arrived. lateness[i] is how late the generator itself sent op i,
// beyond both its due time and the wait for the connection.
func pace(ctx context.Context, n int, due func(int) time.Duration, clk clock, do func(int) time.Duration) (ts []timing, lateness []time.Duration) {
	var prevFree time.Duration
	for i := 0; i < n && ctx.Err() == nil; i++ {
		d := due(i)
		clk.sleepUntil(d)
		sent := clk.now()
		replied := do(i)
		ts = append(ts, timing{due: d, replied: replied})
		lateness = append(lateness, sent-max(d, prevFree))
		prevFree = clk.now()
	}
	return ts, lateness
}

// closedLoop sends op after op on one connection until the phase
// deadline; do(i) performs the i-th. Due equals sent, so latency is the
// service time alone.
func closedLoop(ctx context.Context, deadline time.Duration, clk clock, do func(int) time.Duration) []timing {
	var ts []timing
	for i := 0; clk.now() < deadline && ctx.Err() == nil; i++ {
		sent := clk.now()
		replied := do(i)
		ts = append(ts, timing{due: sent, replied: replied})
	}
	return ts
}

// phaseRun is one phase of every worker: per-worker op timings, the
// generator's lateness over all paced ops, the phase's nominal length
// and its wall time.
type phaseRun struct {
	ts       [][]timing
	lateness []time.Duration
	dur      time.Duration
	elapsed  time.Duration
}

// runPhase runs the workers at once from a common start. Open loop
// paces worker w's ops at dues(w); closed loop sends worker w's ops
// back to back until d has passed. exec(w, i, due, clk, base) performs
// worker w's i-th op and returns when its judged reply arrived; in the
// closed loop due is the send time.
func runPhase(ctx context.Context, workers int, open bool, d time.Duration, dues func(w int) []time.Duration,
	exec func(w, i int, due time.Duration, clk clock, base time.Time) time.Duration) phaseRun {
	run := phaseRun{ts: make([][]timing, workers), dur: d}
	lateness := make([][]time.Duration, workers)
	base := time.Now()
	clk := realClock(base)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if open {
				due := dues(w)
				run.ts[w], lateness[w] = pace(ctx, len(due), func(i int) time.Duration { return due[i] }, clk,
					func(i int) time.Duration { return exec(w, i, due[i], clk, base) })
				return
			}
			run.ts[w] = closedLoop(ctx, d, clk, func(i int) time.Duration { return exec(w, i, clk.now(), clk, base) })
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(base)
	for _, l := range lateness {
		run.lateness = append(run.lateness, l...)
	}
	return run
}
