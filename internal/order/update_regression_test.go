package order

// Regression tests for the update-path fixes: Delete dropping emptied
// records instead of keeping degenerate CRT rows, the hybrid Compact sort,
// and the LastShift bookkeeping.

import (
	"math/rand"
	"testing"

	"primelabel/internal/numtheory"
)

// TestCRTOnEmptyIsDegenerate documents why Delete must drop a record whose
// last member was removed: CRT over zero congruences "succeeds" with the
// degenerate solution x=0 mod 1, so recompute() on an empty record does not
// error — the dead row would simply live in the table forever.
func TestCRTOnEmptyIsDegenerate(t *testing.T) {
	x, mod, err := numtheory.CRTGarner(nil)
	if err != nil {
		t.Fatalf("CRTGarner(nil) err = %v, want nil", err)
	}
	if x.Sign() != 0 || mod.Cmp(x.SetInt64(1)) != 0 {
		t.Fatalf("CRTGarner(nil) = (%v, %v), want (0, 1)", x, mod)
	}
}

func TestDeleteLastMemberDropsRecord(t *testing.T) {
	tbl := mustTable(t, 2)
	for _, p := range []uint64{7, 11, 13, 17, 19} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Records: [7 11] [13 17] [19]. Empty the middle one.
	if tbl.RecordCount() != 3 {
		t.Fatalf("RecordCount = %d, want 3", tbl.RecordCount())
	}
	for _, p := range []uint64{13, 17} {
		if err := tbl.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RecordCount() != 2 {
		t.Errorf("RecordCount after emptying middle record = %d, want 2", tbl.RecordCount())
	}
	// The byPrime indices of records after the dropped row must have moved
	// down with it; Verify checks exactly that mapping.
	if err := tbl.Verify(); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[uint64]int{7: 1, 11: 2, 19: 5} {
		if got, _ := tbl.OrderOf(p); got != want {
			t.Errorf("OrderOf(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestDeleteUntilEmpty(t *testing.T) {
	tbl := mustTable(t, 3)
	primes := []uint64{7, 11, 13, 17, 19, 23, 29}
	for _, p := range primes {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Records: [7 11 13] [17 19 23] [29]. Empty the middle record (the
	// last record's members are re-indexed), then the last (nothing after
	// it to re-index), then the first.
	for _, p := range []uint64{19, 17, 23, 29, 11, 7, 13} {
		if err := tbl.Delete(p); err != nil {
			t.Fatalf("Delete(%d): %v", p, err)
		}
		if err := tbl.Verify(); err != nil {
			t.Fatalf("Verify after Delete(%d): %v", p, err)
		}
	}
	if tbl.Len() != 0 || tbl.RecordCount() != 0 {
		t.Fatalf("emptied table has Len=%d RecordCount=%d, want 0/0", tbl.Len(), tbl.RecordCount())
	}
	// The table must remain usable: order numbers resume past the old
	// maximum (deletion never reuses order numbers).
	if err := tbl.Append(37); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.OrderOf(37); got != len(primes)+1 {
		t.Errorf("OrderOf(37) = %d, want %d", got, len(primes)+1)
	}
	if err := tbl.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLastShiftDenseInsert(t *testing.T) {
	tbl := mustTable(t, 5)
	for _, p := range []uint64{5, 7, 11} {
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
		if got := tbl.LastShift(); got != (ShiftInfo{}) {
			t.Fatalf("LastShift after Append = %+v, want zero", got)
		}
	}
	if _, _, err := tbl.InsertBetween(13, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := tbl.LastShift(); got != (ShiftInfo{From: 2, Delta: 1}) {
		t.Errorf("LastShift after dense InsertBetween = %+v, want {From:2 Delta:1}", got)
	}
}

func TestLastShiftInsertBetween(t *testing.T) {
	tbl, err := NewTableSpaced(5, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{97, 101} { // orders 8, 16
		if err := tbl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Open gap: midpoint, no shift.
	if _, _, err := tbl.InsertBetween(103, 8, 16); err != nil { // order 12
		t.Fatal(err)
	}
	if got := tbl.LastShift(); got != (ShiftInfo{}) {
		t.Errorf("LastShift after midpoint insert = %+v, want zero", got)
	}
	if _, _, err := tbl.InsertBetween(107, 8, 12); err != nil { // order 10
		t.Fatal(err)
	}
	if _, _, err := tbl.InsertBetween(109, 10, 12); err != nil { // order 11
		t.Fatal(err)
	}
	// Gap between 10 and 11 is exhausted: orders >= 11 move up by spacing.
	if _, _, err := tbl.InsertBetween(113, 10, 11); err != nil {
		t.Fatal(err)
	}
	if got := tbl.LastShift(); got != (ShiftInfo{From: 11, Delta: 8}) {
		t.Errorf("LastShift after exhausted gap = %+v, want {From:11 Delta:8}", got)
	}
	if err := tbl.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSortMembersByOrderBothPaths(t *testing.T) {
	check := func(n int) {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = Member{Prime: uint64(i), Order: n - i}
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) {
			ms[i], ms[j] = ms[j], ms[i]
		})
		sortMembersByOrder(ms)
		for i := 1; i < len(ms); i++ {
			if ms[i].Order < ms[i-1].Order {
				t.Fatalf("n=%d: not sorted at %d: %d > %d", n, i, ms[i-1].Order, ms[i].Order)
			}
		}
	}
	check(10)   // insertion-sort path
	check(2000) // sort.SliceStable path
}

// BenchmarkSortMembersReversed is the worst case for the old insertion sort
// (fully reversed input, O(n²) swaps); it guards the hybrid's O(n log n)
// behavior for large Compact inputs.
func BenchmarkSortMembersReversed(b *testing.B) {
	const n = 10000
	base := make([]Member, n)
	for i := range base {
		base[i] = Member{Prime: uint64(i + 2), Order: n - i}
	}
	ms := make([]Member, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ms, base)
		sortMembersByOrder(ms)
	}
}
