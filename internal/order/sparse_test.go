package order

import (
	"math/rand"
	"sort"
	"testing"

	"primelabel/internal/primes"
)

func spacedTable(t *testing.T, chunk, spacing int, src *primes.Source) *Table {
	t.Helper()
	tbl, err := NewTableSpaced(chunk, spacing, func(min uint64) uint64 {
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
	return tbl
}

func TestNewTableSpacedValidation(t *testing.T) {
	if _, err := NewTableSpaced(5, 0, nil); err == nil {
		t.Error("spacing 0 should fail")
	}
	if _, err := NewTableSpaced(0, 4, nil); err != ErrBadChunk {
		t.Errorf("chunk 0 err = %v", err)
	}
	tbl, err := NewTableSpaced(5, 1, nil)
	if err != nil || tbl.Spacing() != 1 {
		t.Errorf("spacing 1 table: %v, spacing %d", err, tbl.Spacing())
	}
}

func TestSpacedAppendLeavesGaps(t *testing.T) {
	src := primes.NewSourceStartingAt(100)
	tbl := spacedTable(t, 5, 16, src)
	keys := []uint64{101, 103, 107}
	for _, k := range keys {
		if err := tbl.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{16, 32, 48}
	for i, k := range keys {
		if got, _ := tbl.OrderOf(k); got != want[i] {
			t.Errorf("OrderOf(%d) = %d, want %d", k, got, want[i])
		}
	}
}

// The headline property of the extension: a mid-list insert into an open
// gap touches exactly one record, regardless of how many followers exist.
func TestSparseInsertIntoGapTouchesOneRecord(t *testing.T) {
	// Keys must stay above the largest spaced order value (64 × 200).
	src := primes.NewSourceStartingAt(100000)
	tbl := spacedTable(t, 5, 64, src)
	var keys []uint64
	for i := 0; i < 200; i++ {
		k := src.Next()
		if err := tbl.Append(k); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	prev, _ := tbl.OrderOf(keys[10])
	next, _ := tbl.OrderOf(keys[11])
	updated, rekeys, err := tbl.InsertBetween(src.Next(), prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if updated != 1 {
		t.Errorf("gap insert updated %d records, want 1", updated)
	}
	if len(rekeys) != 0 {
		t.Errorf("gap insert rekeys = %v", rekeys)
	}
	if err := tbl.Verify(); err != nil {
		t.Error(err)
	}
}

// When a gap is exhausted the shift re-opens spacing-sized gaps, so
// repeated insertion at the same point alternates between cheap midpoint
// inserts and occasional shifts.
func TestSparseGapExhaustionShifts(t *testing.T) {
	src := primes.NewSourceStartingAt(10000)
	tbl := spacedTable(t, 5, 4, src)
	a, b := src.Next(), src.Next()
	if err := tbl.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	cheap, shifts := 0, 0
	prevKey := a
	for i := 0; i < 40; i++ {
		po, _ := tbl.OrderOf(prevKey)
		no, _ := tbl.OrderOf(b)
		// Always insert directly before b.
		k := src.Next()
		updated, _, err := tbl.InsertBetween(k, po, no)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if updated == 1 {
			cheap++
		} else {
			shifts++
		}
		prevKey = k
		if err := tbl.Verify(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if cheap == 0 || shifts == 0 {
		t.Errorf("expected a mix of cheap (%d) and shifting (%d) inserts", cheap, shifts)
	}
	if cheap < shifts {
		t.Errorf("spacing should make cheap inserts dominate: cheap=%d shifts=%d", cheap, shifts)
	}
}

func TestInsertBetweenValidation(t *testing.T) {
	tbl := mustTable(t, 5)
	_ = tbl.Append(7)
	if _, _, err := tbl.InsertBetween(1, 0, 0); err != ErrNotPrimeModulus {
		t.Errorf("modulus 1: %v", err)
	}
	if _, _, err := tbl.InsertBetween(7, 0, 0); err == nil {
		t.Error("duplicate should fail")
	}
	if _, _, err := tbl.InsertBetween(11, -1, 0); err == nil {
		t.Error("negative prev should fail")
	}
	if _, _, err := tbl.InsertBetween(11, 5, 3); err == nil {
		t.Error("inverted bounds should fail")
	}
}

// Property: random InsertBetween sequences keep relative order consistent
// with the insertion intent for any spacing.
func TestPropertySparseRandomInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, spacing := range []int{1, 4, 64} {
		for trial := 0; trial < 10; trial++ {
			src := primes.NewSource()
			tbl := spacedTable(t, 1+rng.Intn(6), spacing, src)
			var seq []uint64 // intended document order of keys
			keyOf := map[uint64]uint64{}
			for step := 0; step < 80; step++ {
				pos := rng.Intn(len(seq) + 1)
				prev, next := 0, 0
				if pos > 0 {
					o, err := tbl.OrderOf(keyOf[seq[pos-1]])
					if err != nil {
						t.Fatal(err)
					}
					prev = o
				}
				if pos < len(seq) {
					o, err := tbl.OrderOf(keyOf[seq[pos]])
					if err != nil {
						t.Fatal(err)
					}
					next = o
				}
				k := src.Next()
				_, rekeys, err := tbl.InsertBetween(k, prev, next)
				if err != nil {
					t.Fatalf("spacing %d step %d: %v", spacing, step, err)
				}
				id := k // stable identity of this logical node
				keyOf[id] = k
				for _, kc := range rekeys {
					if kc.Old == k {
						keyOf[id] = kc.New
						continue
					}
					for lid, cur := range keyOf {
						if cur == kc.Old {
							keyOf[lid] = kc.New
						}
					}
				}
				seq = append(seq[:pos], append([]uint64{id}, seq[pos:]...)...)
				if err := tbl.Verify(); err != nil {
					t.Fatalf("spacing %d step %d: %v", spacing, step, err)
				}
			}
			// Orders must be strictly increasing along seq.
			var orders []int
			for _, id := range seq {
				o, err := tbl.OrderOf(keyOf[id])
				if err != nil {
					t.Fatal(err)
				}
				orders = append(orders, o)
			}
			if !sort.IntsAreSorted(orders) {
				t.Fatalf("spacing %d: orders not increasing: %v", spacing, orders)
			}
		}
	}
}
