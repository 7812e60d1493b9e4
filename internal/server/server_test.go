package server

import (
	"sync"
	"testing"

	"mobicache/internal/catalog"
)

func unitCatalog(n int) *catalog.Catalog {
	c, err := catalog.Uniform(n, 1)
	if err != nil {
		panic(err)
	}
	return c
}

func TestTickAppliesSchedule(t *testing.T) {
	cat := unitCatalog(3)
	s := New(cat, catalog.NewPeriodicAll(cat, 5))
	if got := s.Tick(0); len(got) != 3 {
		t.Fatalf("tick 0 updated %d, want 3", len(got))
	}
	for _, id := range cat.IDs() {
		if s.Version(id) != 1 {
			t.Fatalf("version(%d) = %d, want 1", id, s.Version(id))
		}
	}
	if got := s.Tick(1); len(got) != 0 {
		t.Fatalf("tick 1 updated %d, want 0", len(got))
	}
	s.Tick(5)
	if s.Version(0) != 2 {
		t.Fatalf("version after two update rounds = %d", s.Version(0))
	}
	if s.TotalUpdates() != 6 {
		t.Fatalf("TotalUpdates = %d, want 6", s.TotalUpdates())
	}
}

func TestNilScheduleNeverUpdates(t *testing.T) {
	s := New(unitCatalog(2), nil)
	for tick := 0; tick < 10; tick++ {
		if got := s.Tick(tick); len(got) != 0 {
			t.Fatalf("nil schedule updated %d objects", len(got))
		}
	}
}

func TestOnUpdateCallback(t *testing.T) {
	cat := unitCatalog(4)
	s := New(cat, catalog.NewPeriodicAll(cat, 1))
	var seen []catalog.ID
	s.OnUpdate(func(id catalog.ID) { seen = append(seen, id) })
	s.Tick(0)
	if len(seen) != 4 {
		t.Fatalf("callback fired %d times, want 4", len(seen))
	}
}

func TestDownloadAccounting(t *testing.T) {
	cat := catalog.MustNew([]int64{3, 7})
	s := New(cat, catalog.NewPeriodicAll(cat, 1))
	s.Tick(0)
	v, size := s.Download(1)
	if v != 1 || size != 7 {
		t.Fatalf("Download = (%d,%d), want (1,7)", v, size)
	}
	s.Download(0)
	if s.TotalDownloads() != 2 || s.BytesOut() != 10 {
		t.Fatalf("downloads=%d bytes=%d", s.TotalDownloads(), s.BytesOut())
	}
}

func TestLatencyModels(t *testing.T) {
	if got := ConstantLatency(2.5).ServiceTime(100); got != 2.5 {
		t.Fatalf("ConstantLatency = %v", got)
	}
	sp := SizeProportionalLatency{Setup: 1, PerUnit: 0.5}
	if got := sp.ServiceTime(4); got != 3 {
		t.Fatalf("SizeProportionalLatency = %v, want 3", got)
	}
}

func TestOnUpdateSealedAfterFirstTick(t *testing.T) {
	cat := unitCatalog(2)
	s := New(cat, catalog.NewPeriodicAll(cat, 1))
	s.OnUpdate(func(catalog.ID) {}) // before the first tick: fine
	s.Tick(0)
	defer func() {
		if recover() == nil {
			t.Fatal("OnUpdate after Tick accepted")
		}
	}()
	s.OnUpdate(func(catalog.ID) {})
}

func TestDownloadConcurrentAccounting(t *testing.T) {
	cat := unitCatalog(4)
	s := New(cat, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				s.Download(catalog.ID(i % 4))
			}
		}()
	}
	wg.Wait()
	if s.TotalDownloads() != 2000 {
		t.Fatalf("downloads = %d, want 2000", s.TotalDownloads())
	}
	if s.BytesOut() != 2000 {
		t.Fatalf("bytes = %d, want 2000", s.BytesOut())
	}
}
