package server

import (
	"errors"
	"fmt"

	"mobicache/internal/catalog"
	"mobicache/internal/fault"
)

// ErrServerDown reports a fetch attempted during an upstream outage
// window.
var ErrServerDown = errors.New("server: upstream server down")

// ErrFetchFailed reports a fetch lost to the per-request failure process
// (a dropped connection, a 5xx, a corrupt transfer).
var ErrFetchFailed = errors.New("server: fetch failed")

// FaultyStats counts what the fault layer did to the fetch path.
type FaultyStats struct {
	Attempts       uint64 // fetches attempted
	Fetches        uint64 // fetches that succeeded
	OutageFailures uint64 // attempts refused by an outage window
	RandomFailures uint64 // attempts lost to the failure probability
}

// FaultyServer wraps a Server with a fault schedule on its download path.
// The wrapped server's update machinery (Tick, OnUpdate, Version) is
// untouched — masters keep changing during an outage, which is exactly
// what makes outages hurt — but every download must go through Fetch,
// which consults the schedule and may refuse, fail, or slow the transfer.
//
// The schedule speaks of logical upstream servers; FaultyServer maps
// object id to server id mod Servers, so a per-server outage takes down
// the subset of the catalog that server owns.
type FaultyServer struct {
	inner   *Server
	sched   *fault.Schedule
	latency LatencyModel // base fetch latency; nil means zero
	stats   FaultyStats
}

// NewFaultyServer wraps inner with the given schedule. latency gives the
// fault-free fetch latency per download (nil for zero); the schedule's
// spike and slow-start factors multiply it.
func NewFaultyServer(inner *Server, sched *fault.Schedule, latency LatencyModel) (*FaultyServer, error) {
	if inner == nil {
		return nil, fmt.Errorf("server: nil inner server")
	}
	if sched == nil {
		return nil, fmt.Errorf("server: nil fault schedule")
	}
	return &FaultyServer{inner: inner, sched: sched, latency: latency}, nil
}

// Inner returns the wrapped server.
func (f *FaultyServer) Inner() *Server { return f.inner }

// Owner returns the logical upstream server owning an object.
func (f *FaultyServer) Owner(id catalog.ID) int {
	return int(id) % f.sched.Servers()
}

// Stats returns a copy of the fault counters.
func (f *FaultyServer) Stats() FaultyStats { return f.stats }

// Fetch attempts one download of id at the given tick. On success the
// download is recorded on the inner server and the version, size, and
// simulated fetch latency are returned. On failure nothing is recorded
// and the error reports the fault; the returned latency is the time the
// failed attempt still cost (the base station's retry budget pays for
// failures too).
func (f *FaultyServer) Fetch(id catalog.ID, tick int) (version uint64, size int64, latency float64, err error) {
	f.stats.Attempts++
	owner := f.Owner(id)
	latency = f.sched.LatencyFactor(owner, tick) * f.baseLatency(id)
	if f.sched.Down(owner, tick) {
		f.stats.OutageFailures++
		return 0, 0, latency, ErrServerDown
	}
	if f.sched.DrawFailure(owner) {
		f.stats.RandomFailures++
		return 0, 0, latency, ErrFetchFailed
	}
	f.stats.Fetches++
	version, size = f.inner.Download(id)
	return version, size, latency, nil
}

// baseLatency returns the fault-free fetch latency for one object.
func (f *FaultyServer) baseLatency(id catalog.ID) float64 {
	if f.latency == nil {
		return 0
	}
	return f.latency.ServiceTime(f.inner.cat.Size(id))
}
