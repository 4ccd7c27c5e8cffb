package order

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"primelabel/internal/numtheory"
	"primelabel/internal/primes"
)

func mustTable(t *testing.T, chunk int) *Table {
	t.Helper()
	tbl, err := NewTable(chunk, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// keyedTable returns a table whose overflow keys come from src (always
// larger than both min and anything src issued before).
func keyedTable(t *testing.T, chunk int, src *primes.Source) *Table {
	t.Helper()
	tbl, err := NewTable(chunk, func(min uint64) uint64 {
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

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0, nil); err != ErrBadChunk {
		t.Errorf("NewTable(0, nil) err = %v, want ErrBadChunk", err)
	}
	if _, err := NewTable(-3, nil); err != ErrBadChunk {
		t.Errorf("NewTable(-3, nil) err = %v, want ErrBadChunk", err)
	}
}

// The paper's Figure 9: six nodes with self-labels 2,3,5,7,11,13 and order
// numbers 1..6 captured by a single SC value 29243.
func TestFigure9SingleSC(t *testing.T) {
	tbl := mustTable(t, 10)
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	rows := tbl.SCValues()
	if len(rows) != 1 {
		t.Fatalf("records = %d, want 1", len(rows))
	}
	if rows[0].SC.Int64() != 29243 {
		t.Errorf("SC = %v, want 29243", rows[0].SC)
	}
	if rows[0].MaxPrime != 13 {
		t.Errorf("MaxPrime = %d, want 13", rows[0].MaxPrime)
	}
	if got, _ := tbl.OrderOf(5); got != 3 {
		t.Errorf("OrderOf(5) = %d, want 3 (paper: 29243 mod 5 = 3)", got)
	}
}

// The paper's Figure 10: chunk 5 splits the same six nodes into SC=1523
// (max prime 11) and SC=6 (max prime 13).
func TestFigure10ChunkedSC(t *testing.T) {
	tbl := mustTable(t, 5)
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	rows := tbl.SCValues()
	if len(rows) != 2 {
		t.Fatalf("records = %d, want 2", len(rows))
	}
	if rows[0].SC.Int64() != 1523 || rows[0].MaxPrime != 11 {
		t.Errorf("row 0 = SC %v maxPrime %d, want 1523/11", rows[0].SC, rows[0].MaxPrime)
	}
	if rows[1].SC.Int64() != 6 || rows[1].MaxPrime != 13 {
		t.Errorf("row 1 = SC %v maxPrime %d, want 6/13", rows[1].SC, rows[1].MaxPrime)
	}
}

// The paper's Figures 11/12: inserting a node with self-label 17 at order
// position 3 bumps orders 3..6 and updates both records; afterwards
// 17 maps to 3 and 13 maps to 7. No re-keying is needed.
func TestFigure11Insert(t *testing.T) {
	tbl := mustTable(t, 5)
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	updated, rekeys, err := tbl.InsertBetween(17, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if updated != 2 {
		t.Errorf("records updated = %d, want 2", updated)
	}
	if len(rekeys) != 0 {
		t.Errorf("rekeys = %v, want none", rekeys)
	}
	wantOrders := map[uint64]int{2: 1, 3: 2, 17: 3, 5: 4, 7: 5, 11: 6, 13: 7}
	for p, want := range wantOrders {
		if got, err := tbl.OrderOf(p); err != nil || got != want {
			t.Errorf("OrderOf(%d) = %d,%v; want %d", p, got, err, want)
		}
	}
	if err := tbl.Verify(); err != nil {
		t.Errorf("Verify after insert: %v", err)
	}
}

func TestAppendErrors(t *testing.T) {
	tbl := mustTable(t, 5)
	if err := tbl.Append(1); err != ErrNotPrimeModulus {
		t.Errorf("Append(1) err = %v", err)
	}
	if err := tbl.Append(7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(7); err == nil {
		t.Error("duplicate Append should fail")
	}
}

func TestAppendOverflowRejected(t *testing.T) {
	// Appending prime 2 as the second node would give it order 2, which
	// 2 cannot encode (2 mod 2 = 0).
	tbl := mustTable(t, 5)
	if err := tbl.Append(7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(2); !errors.Is(err, ErrOrderOverflow) {
		t.Errorf("Append(2) as order 2: err = %v, want ErrOrderOverflow", err)
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := mustTable(t, 5)
	_ = tbl.Append(2)
	if _, _, err := tbl.InsertBetween(2, 0, 1); err == nil {
		t.Error("duplicate InsertBetween should fail")
	}
	if _, _, err := tbl.InsertBetween(3, -1, 0); !errors.Is(err, ErrBadOrder) {
		t.Errorf("negative prev order: err = %v, want ErrBadOrder", err)
	}
	if _, _, err := tbl.InsertBetween(3, 1, 1); !errors.Is(err, ErrBadOrder) {
		t.Errorf("next order not after prev: err = %v, want ErrBadOrder", err)
	}
	if _, _, err := tbl.InsertBetween(1, 0, 1); err != ErrNotPrimeModulus {
		t.Error("modulus 1 should fail")
	}
}

func TestInsertAtEnd(t *testing.T) {
	tbl := mustTable(t, 3)
	_ = tbl.Append(2)
	_ = tbl.Append(3)
	// Insert at position len+1 == append.
	updated, rekeys, err := tbl.InsertBetween(5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if updated != 1 || len(rekeys) != 0 {
		t.Errorf("append-style insert: updated=%d rekeys=%v, want 1/none", updated, rekeys)
	}
	if got, _ := tbl.OrderOf(5); got != 3 {
		t.Errorf("OrderOf(5) = %d, want 3", got)
	}
}

// Inserting at the front bumps the node keyed 2 to order 2, which 2 cannot
// encode: without a KeyFunc the insert must fail, with one it must re-key.
func TestInsertOverflow(t *testing.T) {
	plain := mustTable(t, 5)
	_ = plain.Append(2)
	_ = plain.Append(3)
	if _, _, err := plain.InsertBetween(31, 0, 1); !errors.Is(err, ErrOrderOverflow) {
		t.Errorf("front insert without KeyFunc: err = %v, want ErrOrderOverflow", err)
	}

	src := primes.NewSourceStartingAt(100)
	keyed := keyedTable(t, 5, src)
	_ = keyed.Append(2)
	_ = keyed.Append(3)
	_, rekeys, err := keyed.InsertBetween(31, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both existing nodes overflow: key 2 gets order 2 (2 mod 2 = 0) and
	// key 3 gets order 3 (3 mod 3 = 0).
	if len(rekeys) != 2 || rekeys[0].Old != 2 || rekeys[1].Old != 3 {
		t.Fatalf("rekeys = %v, want {Old:2} and {Old:3}", rekeys)
	}
	if _, err := keyed.OrderOf(2); err == nil {
		t.Error("old key 2 should no longer resolve")
	}
	if got, _ := keyed.OrderOf(rekeys[0].New); got != 2 {
		t.Errorf("re-keyed node order = %d, want 2", got)
	}
	if got, _ := keyed.OrderOf(31); got != 1 {
		t.Errorf("new node order = %d, want 1", got)
	}
	if err := keyed.Verify(); err != nil {
		t.Error(err)
	}
}

// snapshotOf renders a table's persistable state for before/after
// comparisons.
func snapshotOf(tbl *Table) string {
	c, s, next, recs := tbl.Snapshot()
	return fmt.Sprint(c, s, next, recs, tbl.SCValues())
}

// TestFailedInsertChangesNothing pins both ways an insert used to fail
// after it had started shifting: a member overflowing its key on a table
// without a KeyFunc, and a new key sharing a factor with the receiving
// record. Either must leave the table exactly as it was, and Verify must
// hold.
func TestFailedInsertChangesNothing(t *testing.T) {
	overflow := mustTable(t, 1)
	for _, p := range []uint64{101, 103, 5, 107} {
		if err := overflow.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := overflow.InsertBetween(109, 0, 1); err != nil {
		t.Fatal(err)
	}
	before := snapshotOf(overflow)
	// The shift would move key 5 to order 5.
	if _, _, err := overflow.InsertBetween(113, 0, 1); !errors.Is(err, ErrOrderOverflow) {
		t.Fatalf("InsertBetween(113, 0, 1) err = %v, want ErrOrderOverflow", err)
	}
	if after := snapshotOf(overflow); after != before {
		t.Errorf("failed insert changed the table:\n before %s\n after  %s", before, after)
	}
	if err := overflow.Verify(); err != nil {
		t.Error(err)
	}

	shared := mustTable(t, 5)
	for _, p := range []uint64{7, 11} {
		if err := shared.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	before = snapshotOf(shared)
	if _, _, err := shared.InsertBetween(77, 0, 1); !errors.Is(err, numtheory.ErrNotCoprime) {
		t.Fatalf("InsertBetween(77, 0, 1) err = %v, want ErrNotCoprime", err)
	}
	if after := snapshotOf(shared); after != before {
		t.Errorf("failed insert changed the table:\n before %s\n after  %s", before, after)
	}
	if shared.MaxOrder() != 2 {
		t.Errorf("MaxOrder = %d, want 2", shared.MaxOrder())
	}
	if err := shared.Verify(); err != nil {
		t.Error(err)
	}
	// An insert after the first member validates the same way.
	if _, _, err := shared.InsertBetween(77, 1, 2); !errors.Is(err, numtheory.ErrNotCoprime) {
		t.Fatalf("InsertBetween(77, 1, 2) err = %v, want ErrNotCoprime", err)
	}
	if after := snapshotOf(shared); after != before {
		t.Errorf("failed InsertBetween changed the table:\n before %s\n after  %s", before, after)
	}
}

// TestVerifyCatchesOrderAtHighWaterMark checks Verify's bound on live
// orders: an order at or past the high-water mark is an inconsistency.
func TestVerifyCatchesOrderAtHighWaterMark(t *testing.T) {
	tbl := mustTable(t, 5)
	for _, p := range []uint64{7, 11} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	tbl.nextOrd = 2 // key 11 holds order 2
	if err := tbl.Verify(); err == nil {
		t.Error("Verify accepted an order at the high-water mark")
	}
}

func TestInsertOpensNewRecordWhenFull(t *testing.T) {
	src := primes.NewSourceStartingAt(100)
	tbl := keyedTable(t, 2, src)
	_ = tbl.Append(2)
	_ = tbl.Append(3) // record 0 full
	if tbl.RecordCount() != 1 {
		t.Fatalf("RecordCount = %d", tbl.RecordCount())
	}
	if _, _, err := tbl.InsertBetween(5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if tbl.RecordCount() != 2 {
		t.Errorf("RecordCount after overflow insert = %d, want 2", tbl.RecordCount())
	}
	if err := tbl.Verify(); err != nil {
		t.Error(err)
	}
}

func TestDelete(t *testing.T) {
	tbl := mustTable(t, 5)
	for _, p := range []uint64{2, 3, 5, 7, 11} {
		_ = tbl.Append(p)
	}
	if err := tbl.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.OrderOf(5); err == nil {
		t.Error("deleted prime still resolvable")
	}
	// Other orders unchanged (gaps allowed).
	for p, want := range map[uint64]int{2: 1, 3: 2, 7: 4, 11: 5} {
		if got, _ := tbl.OrderOf(p); got != want {
			t.Errorf("OrderOf(%d) = %d, want %d", p, got, want)
		}
	}
	if err := tbl.Delete(999); err == nil {
		t.Error("deleting unknown prime should fail")
	}
	if err := tbl.Verify(); err != nil {
		t.Error(err)
	}
}

func TestBefore(t *testing.T) {
	tbl := mustTable(t, 4)
	_ = tbl.Append(3)
	_ = tbl.Append(7)
	if b, err := tbl.Before(3, 7); err != nil || !b {
		t.Errorf("Before(3,7) = %v,%v", b, err)
	}
	if b, err := tbl.Before(7, 3); err != nil || b {
		t.Errorf("Before(7,3) = %v,%v", b, err)
	}
	if _, err := tbl.Before(3, 999); err == nil {
		t.Error("Before with unknown prime should fail")
	}
}

// Property: after any sequence of ordered inserts (with re-keying), the SC
// table recovers every node's order, and orders form the permutation
// implied by the insert sequence.
func TestPropertyRandomInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		chunk := 1 + rng.Intn(7)
		src := primes.NewSource()
		tbl := keyedTable(t, chunk, src)
		var seq []uint64 // current key of each node, document order
		for step := 0; step < 60; step++ {
			p := src.Next()
			pos := 1 + rng.Intn(len(seq)+1)
			_, rekeys, err := tbl.InsertBetween(p, pos-1, pos)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for _, kc := range rekeys {
				if kc.Old == p {
					p = kc.New
					continue
				}
				for i, k := range seq {
					if k == kc.Old {
						seq[i] = kc.New
					}
				}
			}
			seq = append(seq[:pos-1], append([]uint64{p}, seq[pos-1:]...)...)
			if err := tbl.Verify(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		for i, key := range seq {
			got, err := tbl.OrderOf(key)
			if err != nil {
				t.Fatal(err)
			}
			if got != i+1 {
				t.Fatalf("trial %d: node %d (key %d) order %d, want %d", trial, i, key, got, i+1)
			}
		}
	}
}

// Property: record-update count per insert never exceeds the record count
// and is at least 1.
func TestPropertyInsertUpdateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := primes.NewSource()
	tbl := keyedTable(t, 5, src)
	n := 0
	for step := 0; step < 200; step++ {
		pos := 1 + rng.Intn(n+1)
		updated, _, err := tbl.InsertBetween(src.Next(), pos-1, pos)
		if err != nil {
			t.Fatal(err)
		}
		n++
		if updated < 1 || updated > tbl.RecordCount() {
			t.Fatalf("step %d: updated %d records (have %d)", step, updated, tbl.RecordCount())
		}
	}
}

// Inserting at the very end should touch exactly one record regardless of
// document size — the cheap case the SC design optimizes for.
func TestAppendOnlyTouchesOneRecord(t *testing.T) {
	tbl := mustTable(t, 5)
	src := primes.NewSource()
	for i := 0; i < 100; i++ {
		updated, rekeys, err := tbl.InsertBetween(src.Next(), i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if updated != 1 || len(rekeys) != 0 {
			t.Fatalf("append %d: updated=%d rekeys=%v, want 1/none", i, updated, rekeys)
		}
	}
}

func TestChunkOneDegeneratesToDirectOrder(t *testing.T) {
	src := primes.NewSourceStartingAt(1000)
	tbl := keyedTable(t, 1, src)
	for _, p := range []uint64{2, 3, 5} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RecordCount() != 3 {
		t.Errorf("chunk 1: records = %d, want 3", tbl.RecordCount())
	}
	// Insert in front: all three existing records update plus the new one;
	// nodes keyed 2 and 3 overflow (orders become 2 and 3) and re-key.
	updated, rekeys, err := tbl.InsertBetween(7, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if updated != 4 {
		t.Errorf("chunk 1 front insert updated %d, want 4", updated)
	}
	if len(rekeys) != 2 {
		t.Errorf("rekeys = %v, want 2 changes (keys 2 and 3)", rekeys)
	}
	if err := tbl.Verify(); err != nil {
		t.Error(err)
	}
}

func TestLenAndMaxOrder(t *testing.T) {
	tbl := mustTable(t, 5)
	if tbl.Len() != 0 || tbl.MaxOrder() != 0 {
		t.Error("empty table should have Len 0 and MaxOrder 0")
	}
	_ = tbl.Append(5)
	_ = tbl.Append(7)
	if tbl.Len() != 2 || tbl.MaxOrder() != 2 || tbl.Chunk() != 5 {
		t.Errorf("Len=%d MaxOrder=%d Chunk=%d", tbl.Len(), tbl.MaxOrder(), tbl.Chunk())
	}
}

func TestCompact(t *testing.T) {
	src := primes.NewSource()
	tbl := mustTable(t, 3)
	var keys []uint64
	for i := 0; i < 30; i++ {
		k := src.Next()
		if err := tbl.Append(k); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Delete two of every three members, leaving sparse records.
	var kept []uint64
	for i, k := range keys {
		if i%3 == 0 {
			kept = append(kept, k)
			continue
		}
		if err := tbl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	before := map[uint64]int{}
	for _, k := range kept {
		o, err := tbl.OrderOf(k)
		if err != nil {
			t.Fatal(err)
		}
		before[k] = o
	}
	recs, err := tbl.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// 10 survivors / chunk 3 = 4 records, down from 10.
	if recs != 4 || tbl.RecordCount() != 4 {
		t.Errorf("records after compact = %d, want 4", recs)
	}
	for _, k := range kept {
		o, err := tbl.OrderOf(k)
		if err != nil {
			t.Fatal(err)
		}
		if o != before[k] {
			t.Errorf("OrderOf(%d) changed: %d -> %d", k, before[k], o)
		}
	}
	if err := tbl.Verify(); err != nil {
		t.Fatal(err)
	}
	// Inserts keep working afterwards.
	if _, _, err := tbl.InsertBetween(src.Next(), 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactEmpty(t *testing.T) {
	tbl := mustTable(t, 5)
	recs, err := tbl.Compact()
	if err != nil || recs != 0 {
		t.Errorf("Compact() on empty table = %d, %v", recs, err)
	}
}
