package querystats

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"primelabel/internal/server/api"
)

func TestRecordAggregatesPerEntry(t *testing.T) {
	r := New(8)
	r.Record(Sample{Doc: "d", Shape: "//a", Latency: 2 * time.Millisecond, Candidates: 10})
	r.Record(Sample{Doc: "d", Shape: "//a", Latency: 1 * time.Millisecond, CacheHit: true})
	r.Record(Sample{Doc: "d", Shape: "//a", Latency: 3 * time.Millisecond, Candidates: 30})
	r.Record(Sample{Doc: "d", Shape: "///", Latency: time.Microsecond, Err: true})

	snap := r.Snapshot("d", 0)
	if len(snap.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(snap.Entries))
	}
	// //a dominates by total time, so it sorts first.
	e := snap.Entries[0]
	if e.Shape != "//a" || e.Calls != 3 || e.CacheHits != 1 {
		t.Errorf("aggregate wrong: %+v", e)
	}
	// Cache hits skip the candidate histogram: mean over the two misses.
	if e.MeanCandidates != 20 {
		t.Errorf("MeanCandidates = %g, want 20", e.MeanCandidates)
	}
	if e.MaxMS != 3 {
		t.Errorf("MaxMS = %g, want 3", e.MaxMS)
	}
	if bad := snap.Entries[1]; bad.Errors != 1 || bad.Calls != 1 {
		t.Errorf("error entry wrong: %+v", bad)
	}

	calls, errs, hits, evict := r.Totals()
	if calls != 4 || errs != 1 || hits != 1 || evict != 0 {
		t.Errorf("totals = %d %d %d %d", calls, errs, hits, evict)
	}
}

func TestSlowProfileTracksSlowestCall(t *testing.T) {
	r := New(8)
	p1 := &api.QueryExplain{Shape: "//a", Candidates: 1}
	p2 := &api.QueryExplain{Shape: "//a", Candidates: 2}
	p3 := &api.QueryExplain{Shape: "//a", Candidates: 3}
	r.Record(Sample{Doc: "d", Shape: "//a", Latency: 5 * time.Millisecond, Profile: p1})
	r.Record(Sample{Doc: "d", Shape: "//a", Latency: 9 * time.Millisecond, Profile: p2})
	r.Record(Sample{Doc: "d", Shape: "//a", Latency: 2 * time.Millisecond, Profile: p3})
	e := r.Snapshot("d", 0).Entries[0]
	if e.SlowProfile != p2 {
		t.Errorf("slow profile = %+v, want the 9ms call's", e.SlowProfile)
	}
}

func TestLRUEvictionKeepsTotalsMonotonic(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Sample{Doc: "d", Shape: fmt.Sprintf("//t%d", i), Latency: time.Millisecond})
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want capacity 4", r.Len())
	}
	calls, _, _, evictions := r.Totals()
	if calls != 10 {
		t.Errorf("calls total = %d, want 10 (must survive eviction)", calls)
	}
	if evictions != 6 {
		t.Errorf("evictions = %d, want 6", evictions)
	}
	if lat := r.Latency(); lat.Count != 10 {
		t.Errorf("global latency count = %d, want 10", lat.Count)
	}

	// Recency protects an entry: touch the oldest survivor, add one more
	// shape, and the touched entry must still be present.
	r.Record(Sample{Doc: "d", Shape: "//t6", Latency: time.Millisecond})
	r.Record(Sample{Doc: "d", Shape: "//fresh", Latency: time.Millisecond})
	found := false
	for _, e := range r.Snapshot("", 0).Entries {
		if e.Shape == "//t6" {
			found = true
		}
	}
	if !found {
		t.Error("recently-used entry was evicted before an older one")
	}
}

// TestTenThousandShapesStayBounded is the acceptance-criteria test: 10k
// distinct shapes against the default capacity keep the registry at its
// bound, with top-K still serving profiles for the expensive shapes.
func TestTenThousandShapesStayBounded(t *testing.T) {
	r := New(0) // DefaultCapacity
	const shapes = 10000
	for i := 0; i < shapes; i++ {
		lat := time.Duration(i%97+1) * time.Microsecond
		if i == shapes-1 {
			lat = time.Second // a clear slowest shape, recorded last so it survives the LRU
		}
		r.Record(Sample{
			Doc:     "d",
			Shape:   fmt.Sprintf("//tag%d", i),
			Latency: lat,
			Profile: &api.QueryExplain{Shape: fmt.Sprintf("//tag%d", i)},
		})
	}
	if r.Len() > DefaultCapacity {
		t.Errorf("registry grew past capacity: %d > %d", r.Len(), DefaultCapacity)
	}
	calls, _, _, evictions := r.Totals()
	if calls != shapes {
		t.Errorf("calls = %d, want %d", calls, shapes)
	}
	if want := uint64(shapes - DefaultCapacity); evictions != want {
		t.Errorf("evictions = %d, want %d", evictions, want)
	}
	top := r.Snapshot("", 5)
	if len(top.Entries) != 5 {
		t.Fatalf("top-5 returned %d entries", len(top.Entries))
	}
	if e := top.Entries[0]; e.Shape != fmt.Sprintf("//tag%d", shapes-1) || e.SlowProfile == nil {
		t.Errorf("slowest shape wrong or missing profile: %+v", e)
	}
	for i := 1; i < len(top.Entries); i++ {
		if top.Entries[i].TotalMS > top.Entries[i-1].TotalMS {
			t.Errorf("top-K not sorted by total time: %g after %g",
				top.Entries[i].TotalMS, top.Entries[i-1].TotalMS)
		}
	}
}

func TestSnapshotDocFilter(t *testing.T) {
	r := New(8)
	r.Record(Sample{Doc: "a", Shape: "//x", Latency: time.Millisecond})
	r.Record(Sample{Doc: "b", Shape: "//x", Latency: time.Millisecond})
	snap := r.Snapshot("a", 0)
	if len(snap.Entries) != 1 || snap.Entries[0].Doc != "a" {
		t.Errorf("doc filter leaked: %+v", snap.Entries)
	}
	// Shapes reports the whole registry even when the filter narrows entries.
	if snap.Shapes != 2 {
		t.Errorf("Shapes = %d, want 2", snap.Shapes)
	}
}

func TestRecordConcurrent(t *testing.T) {
	r := New(16)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Sample{
					Doc:     "d",
					Shape:   fmt.Sprintf("//t%d", i%32),
					Latency: time.Duration(i+1) * time.Microsecond,
				})
			}
		}(w)
	}
	wg.Wait()
	calls, _, _, _ := r.Totals()
	if calls != workers*per {
		t.Errorf("calls = %d, want %d", calls, workers*per)
	}
	if r.Len() != 16 {
		t.Errorf("Len = %d, want capacity 16", r.Len())
	}
}
