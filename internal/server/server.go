// Package server models the remote servers on the fixed network: the
// authoritative versions of every object, the update processes that change
// them, and (behind FaultyServer) per-download fetch latency. The model is
// pull-based, exactly as in the paper: servers never push data; they
// answer downloads initiated by the base station.
package server

import (
	"sync/atomic"

	"mobicache/internal/catalog"
)

// Server holds the master copies of all catalog objects and applies an
// update schedule to them tick by tick.
//
// Concurrency contract: a Server is shared by every base station of a
// multi-cell deployment, so its methods split into two classes. Tick and
// OnUpdate belong to the coordinator — Tick must run alone (it mutates
// versions and fires the listeners), and all OnUpdate registrations must
// happen before the first Tick (enforced: late registration panics).
// Download and the counter accessors (TotalDownloads, BytesOut,
// TotalUpdates, Version) are safe to call from many stations at once
// between Ticks: the counters are atomic and versions only change inside
// Tick. This is what lets the multi-cell engine fan ServeTick across
// cells while they all download from one server.
type Server struct {
	cat       *catalog.Catalog
	schedule  catalog.UpdateSchedule
	versions  []uint64
	updates   atomic.Uint64
	downloads atomic.Uint64
	bytesOut  atomic.Int64
	listeners []func(catalog.ID)
	ticked    bool // set by the first Tick; seals OnUpdate registration
}

// New creates a server whose objects all start at version 0.
func New(cat *catalog.Catalog, schedule catalog.UpdateSchedule) *Server {
	if schedule == nil {
		schedule = catalog.Never{}
	}
	return &Server{
		cat:      cat,
		schedule: schedule,
		versions: make([]uint64, cat.Len()),
	}
}

// Catalog returns the catalog this server serves.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// OnUpdate registers a callback invoked for each object update, in update
// order. The base-station cache uses this to decay recency scores.
//
// Registration is only legal before the first Tick: the listener list is
// read without locking while ticking, and the callbacks mutate caches
// that stations may be serving concurrently, so a listener appearing
// mid-run would race. Late registration panics — it is
// a wiring bug, not an input condition.
func (s *Server) OnUpdate(fn func(catalog.ID)) {
	if s.ticked {
		panic("server: OnUpdate registration after the first Tick; wire listeners before the simulation starts")
	}
	s.listeners = append(s.listeners, fn)
}

// Tick applies the update schedule for the given tick and returns the IDs
// updated (the slice is valid until the next Tick). It must not run
// concurrently with Download or with any station serving a tick — see the
// Server concurrency contract.
func (s *Server) Tick(tick int) []catalog.ID {
	updated := s.schedule.UpdatedAt(tick)
	s.ApplyUpdates(updated)
	return updated
}

// ApplyUpdates applies externally sourced update notifications: each id's
// master version advances and the update listeners fire, exactly as if
// the schedule had produced the ids. This is the ingestion path for a
// serving deployment where update notifications arrive over the network
// instead of from a simulated schedule. It follows Tick's concurrency
// contract: coordinator-only, never concurrent with Download or a station
// serving a tick, and it seals OnUpdate registration like the first Tick.
func (s *Server) ApplyUpdates(ids []catalog.ID) {
	s.ticked = true
	for _, id := range ids {
		s.versions[id]++
		s.updates.Add(1)
		for _, fn := range s.listeners {
			fn(id)
		}
	}
}

// Version returns the current master version of an object.
func (s *Server) Version(id catalog.ID) uint64 {
	return s.versions[id]
}

// Download records a download of an object and returns the version and
// size delivered. It is safe for concurrent use by many stations between
// Ticks: the accounting is atomic and the version vector is read-only
// outside Tick.
func (s *Server) Download(id catalog.ID) (version uint64, size int64) {
	s.downloads.Add(1)
	s.bytesOut.Add(s.cat.Size(id))
	return s.versions[id], s.cat.Size(id)
}

// TotalUpdates returns how many object updates have occurred.
func (s *Server) TotalUpdates() uint64 { return s.updates.Load() }

// TotalDownloads returns how many downloads have been served.
func (s *Server) TotalDownloads() uint64 { return s.downloads.Load() }

// BytesOut returns the total data units served.
func (s *Server) BytesOut() int64 { return s.bytesOut.Load() }

// LatencyModel yields the fault-free latency of one download, the base
// that FaultyServer's spike and slow-start factors multiply.
type LatencyModel interface {
	// ServiceTime returns the latency to serve one download of the given
	// size.
	ServiceTime(size int64) float64
}

// ConstantLatency serves every request in a fixed time.
type ConstantLatency float64

// ServiceTime implements LatencyModel.
func (c ConstantLatency) ServiceTime(int64) float64 { return float64(c) }

// SizeProportionalLatency charges a fixed setup time plus time
// proportional to the object size.
type SizeProportionalLatency struct {
	Setup   float64
	PerUnit float64
}

// ServiceTime implements LatencyModel.
func (s SizeProportionalLatency) ServiceTime(size int64) float64 {
	return s.Setup + s.PerUnit*float64(size)
}
