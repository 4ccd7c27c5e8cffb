package order

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"primelabel/internal/numtheory"
	"primelabel/internal/primes"
)

// keyPool issues fresh primes for a fuzzed table: small hands out the
// smallest prime never issued, so inserted nodes start with keys their
// orders soon outgrow, and above is the table's KeyFunc.
type keyPool struct {
	used map[uint64]bool
	lo   uint64
}

func newKeyPool() *keyPool { return &keyPool{used: map[uint64]bool{}, lo: 2} }

func (k *keyPool) small() uint64 {
	for k.used[k.lo] {
		k.lo = primes.NextPrime(k.lo)
	}
	k.used[k.lo] = true
	return k.lo
}

func (k *keyPool) above(min uint64) uint64 {
	p := primes.NextPrime(min)
	for k.used[p] {
		p = primes.NextPrime(p)
	}
	k.used[p] = true
	return p
}

// sctModel is the fuzz oracle: node identities in document order, and the
// current order key of each (re-keys move a node to a new key).
type sctModel struct {
	seq   []uint64          // node ids in document order
	keyOf map[uint64]uint64 // node id -> current key
	idOf  map[uint64]uint64 // current key -> node id
}

func (m *sctModel) add(pos int, id, key uint64) {
	m.seq = append(m.seq, 0)
	copy(m.seq[pos+1:], m.seq[pos:])
	m.seq[pos] = id
	m.keyOf[id], m.idOf[key] = key, id
}

// rekey applies an insertion's key changes, the inserted node's own
// included.
func (m *sctModel) rekey(t *testing.T, kcs []KeyChange) {
	t.Helper()
	for _, kc := range kcs {
		id, ok := m.idOf[kc.Old]
		if !ok {
			t.Fatalf("re-key of unknown key %d", kc.Old)
		}
		delete(m.idOf, kc.Old)
		m.keyOf[id], m.idOf[kc.New] = kc.New, id
	}
}

// orderAt returns the order number of the node at document position i.
func (m *sctModel) orderAt(t *testing.T, tbl *Table, i int) int {
	t.Helper()
	o, err := tbl.OrderOf(m.keyOf[m.seq[i]])
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// writtenBy returns the record count an insertion must report: every record
// holding a member at or after from (none when from is 0), plus the record
// that receives the new node — the last one when it has room, else a fresh
// one — counted once.
func writtenBy(tbl *Table, from int) int {
	n, lastMoved := 0, false
	for ri, r := range tbl.records {
		for _, o := range r.orders {
			if from > 0 && o >= from {
				n++
				lastMoved = ri == len(tbl.records)-1
				break
			}
		}
	}
	if k := len(tbl.records); k == 0 || len(tbl.records[k-1].primes) == tbl.chunk || !lastMoved {
		n++
	}
	return n
}

// checkTable asserts the invariants the fuzzer guards after every op.
func checkTable(t *testing.T, tbl *Table, m *sctModel) {
	t.Helper()
	if err := tbl.Verify(); err != nil {
		t.Fatal(err)
	}
	for ri, r := range tbl.records {
		cs := make([]numtheory.Congruence, len(r.primes))
		for i, p := range r.primes {
			cs[i] = numtheory.Congruence{Mod: p, Rem: uint64(r.orders[i])}
		}
		sc, mod, err := numtheory.CRTGarner(cs)
		if err != nil {
			t.Fatal(err)
		}
		if r.sc.Cmp(sc) != 0 || r.mod.Cmp(mod) != 0 {
			t.Fatalf("record %d holds %v mod %v, a fresh solve gives %v mod %v", ri, r.sc, r.mod, sc, mod)
		}
	}
	if tbl.Len() != len(m.seq) {
		t.Fatalf("table tracks %d nodes, model %d", tbl.Len(), len(m.seq))
	}
	for i := 1; i < len(m.seq); i++ {
		if a, b := m.orderAt(t, tbl, i-1), m.orderAt(t, tbl, i); a >= b {
			t.Fatalf("document positions %d and %d hold orders %d >= %d", i-1, i, a, b)
		}
	}
}

// composite returns a key that shares a factor with a live key: the
// product of a table key and a fresh prime. It is never issued as a prime.
func (k *keyPool) composite(m *sctModel, pick int) uint64 {
	return m.keyOf[m.seq[pick%len(m.seq)]] * k.small()
}

// FuzzSCTable drives random Append, InsertBetween, Delete, Compact
// and Snapshot/Restore sequences. The first byte picks the chunk (1, 5, 20),
// the spacing (1, 64) and whether the table has a KeyFunc; each later byte
// pair is an op and its argument. Inserted nodes take the smallest unused
// prime, so shifts overflow members' keys often: a keyed table re-keys
// them, a keyless one must refuse the insert. The keyless mode also inserts
// composite keys that share a factor with a live key now and then. After
// every op every record's SC value must equal a fresh CRTGarner solve of its
// members (canonical, not just congruent), an insertion must report the
// reference record count, document order must match the model, and Verify
// must pass; an op that fails must leave the table's snapshot unchanged.
func FuzzSCTable(f *testing.F) {
	// Every (chunk, spacing) pair: a load, front and middle inserts that
	// exhaust gaps, deletes, a compaction, a round trip, more inserts.
	ops := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 3, 2, 3, 3, 3, 4, 2, 4, 9, 2, 255,
		5, 1, 5, 4, 2, 2, 6, 0, 2, 2, 7, 0, 4, 1, 3, 3, 5, 0, 5, 0, 2, 1, 7, 0, 2, 1}
	for cfg := byte(0); cfg < 12; cfg++ {
		f.Add(append([]byte{cfg}, ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer runs add little and slow every exec (the checks are O(n)
		// per op), which stalls the fuzzer while it minimizes inputs.
		const maxOps = 64
		if len(data) == 0 || len(data) > 1+2*maxOps {
			return
		}
		chunk := []int{1, 5, 20}[data[0]%3]
		spacing := []int{1, 64}[data[0]/3%2]
		keyless := data[0]/6%2 == 1
		keys := newKeyPool()
		var newKey KeyFunc
		if !keyless {
			newKey = keys.above
		}
		tbl, err := NewTableSpaced(chunk, spacing, newKey)
		if err != nil {
			t.Fatal(err)
		}
		m := &sctModel{keyOf: map[uint64]uint64{}, idOf: map[uint64]uint64{}}
		// insertKey is the key an inserted node asks for: the smallest
		// unused prime, or in keyless mode now and then a composite.
		insertKey := func(arg int) uint64 {
			if keyless && arg%7 == 0 && len(m.seq) > 0 {
				return keys.composite(m, arg/7)
			}
			return keys.small()
		}
		// failed accepts an op's error only where the mode allows one, and
		// then requires the table to be exactly as before the op.
		failed := func(what string, err error, before string) bool {
			t.Helper()
			if err == nil {
				return false
			}
			if !keyless {
				t.Fatalf("%s: %v", what, err)
			}
			if !errors.Is(err, ErrOrderOverflow) && !errors.Is(err, numtheory.ErrNotCoprime) {
				t.Fatalf("%s: unexpected error %v", what, err)
			}
			if after := snapshotOf(tbl); after != before {
				t.Fatalf("%s failed with %v but changed the table:\n before %s\n after  %s", what, err, before, after)
			}
			return true
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			n := len(m.seq)
			before := snapshotOf(tbl)
			switch {
			case op <= 1 || n == 0: // Append
				key := keys.above(uint64(tbl.MaxOrder() + tbl.Spacing()))
				if failed(fmt.Sprintf("Append(%d)", key), tbl.Append(key), before) {
					break
				}
				m.add(n, key, key)
			case op <= 4: // InsertBetween
				pos := arg % (n + 1)
				prev, next := 0, 0
				if pos > 0 {
					prev = m.orderAt(t, tbl, pos-1)
				}
				if pos < n {
					next = m.orderAt(t, tbl, pos)
				}
				from := 0
				if next != 0 && next-prev <= 1 {
					from = next
				}
				want := writtenBy(tbl, from)
				key := insertKey(arg)
				got, rekeys, err := tbl.InsertBetween(key, prev, next)
				if failed(fmt.Sprintf("InsertBetween(%d, %d, %d)", key, prev, next), err, before) {
					break
				}
				if got != want {
					t.Fatalf("InsertBetween(%d, %d, %d) wrote %d records, want %d", key, prev, next, got, want)
				}
				m.add(pos, key, key)
				m.rekey(t, rekeys)
			case op == 5: // Delete
				pos := arg % n
				id := m.seq[pos]
				if err := tbl.Delete(m.keyOf[id]); err != nil {
					t.Fatal(err)
				}
				m.seq = append(m.seq[:pos], m.seq[pos+1:]...)
				delete(m.idOf, m.keyOf[id])
				delete(m.keyOf, id)
			case op == 6: // Compact
				got, err := tbl.Compact()
				if failed("Compact", err, before) {
					break
				}
				if want := (n + chunk - 1) / chunk; got != want {
					t.Fatalf("Compact rebuilt %d records, want %d", got, want)
				}
			default: // Snapshot/Restore
				c, s, next, recs := tbl.Snapshot()
				restored, err := Restore(c, s, next, recs, newKey)
				if err != nil {
					t.Fatal(err)
				}
				c2, s2, next2, recs2 := restored.Snapshot()
				if c2 != c || s2 != s || next2 != next || !reflect.DeepEqual(recs2, recs) {
					t.Fatal("snapshot of the restored table differs from the original")
				}
				tbl = restored
			}
			checkTable(t, tbl, m)
		}
	})
}
