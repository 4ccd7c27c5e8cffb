package order

import (
	"testing"

	"primelabel/internal/primes"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := primes.NewSource()
	tbl := keyedTable(t, 3, src)
	for i := 0; i < 10; i++ {
		if _, _, err := tbl.InsertBetween(src.Next(), i/2, 1+i/2); err != nil {
			t.Fatal(err)
		}
	}
	chunk, spacing, nextOrd, records := tbl.Snapshot()
	back, err := Restore(chunk, spacing, nextOrd, records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Chunk() != tbl.Chunk() || back.Spacing() != tbl.Spacing() ||
		back.MaxOrder() != tbl.MaxOrder() || back.RecordCount() != tbl.RecordCount() {
		t.Error("restored table shape differs")
	}
	for _, ms := range records {
		for _, m := range ms {
			a, err := tbl.OrderOf(m.Prime)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.OrderOf(m.Prime)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("OrderOf(%d): %d vs %d", m.Prime, a, b)
			}
		}
	}
	if err := back.Verify(); err != nil {
		t.Error(err)
	}
}

func TestRestoreContinuesInserting(t *testing.T) {
	src := primes.NewSourceStartingAt(50)
	tbl := spacedTable(t, 4, 8, src)
	for i := 0; i < 6; i++ {
		if err := tbl.Append(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	chunk, spacing, nextOrd, records := tbl.Snapshot()
	back, err := Restore(chunk, spacing, nextOrd, records, func(min uint64) uint64 {
		for {
			p := src.Next()
			if p > min {
				return p
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Appends and inserts must keep working with consistent numbering.
	if err := back.Append(src.Next()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := back.InsertBetween(src.Next(), 8, 16); err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cases := []struct {
		name    string
		chunk   int
		spacing int
		nextOrd int
		records [][]Member
	}{
		{"bad chunk", 0, 1, 2, nil},
		{"bad spacing", 3, 0, 2, nil},
		{"bad nextOrd", 3, 1, 0, nil},
		{"overfull record", 1, 1, 5, [][]Member{{{Prime: 5, Order: 1}, {Prime: 7, Order: 2}}}},
		{"modulus one", 3, 1, 5, [][]Member{{{Prime: 1, Order: 1}}}},
		{"duplicate prime", 3, 1, 5, [][]Member{{{Prime: 5, Order: 1}, {Prime: 5, Order: 2}}}},
		{"order beyond nextOrd", 3, 1, 2, [][]Member{{{Prime: 5, Order: 3}}}},
		{"order overflow", 3, 1, 9, [][]Member{{{Prime: 5, Order: 7}}}},
		{"duplicate order", 3, 1, 9, [][]Member{{{Prime: 11, Order: 3}, {Prime: 13, Order: 3}}}},
	}
	for _, c := range cases {
		if _, err := Restore(c.chunk, c.spacing, c.nextOrd, c.records, nil); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
