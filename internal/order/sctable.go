// Package order implements the paper's simultaneous congruence (SC) table
// (Section 4): document order for prime-labeled XML trees maintained via
// the Chinese Remainder Theorem.
//
// Every labeled node owns a distinct prime p (its self-label) and a global
// order number. A group of up to chunk nodes shares one SC value x solving
// x ≡ order(v) (mod p(v)) for each member, so a node's order is recovered
// as x mod p. An order-sensitive insertion bumps the order numbers of every
// node after the insertion point, but only the SC *records* holding a moved
// node are written — the node labels themselves never change. That is the
// paper's cost model in Figure 18: one record update counts as one relabel,
// versus thousands of relabeled nodes for interval/prefix schemes.
//
// Each record update is O(1) big-integer work rather than a CRT re-solve. A
// record whose members all moved by Δ is translated to (x + Δ) mod M, M the
// product of its primes; the record that receives the new node is extended
// by one Garner step (numtheory.CRTExtend). Only a record that straddles the
// shift point or holds a re-keyed member is re-solved from its congruences.
package order

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"primelabel/internal/numtheory"
)

// Errors returned by Table operations.
var (
	ErrDuplicatePrime  = errors.New("order: prime already present in SC table")
	ErrUnknownPrime    = errors.New("order: prime not present in SC table")
	ErrBadOrder        = errors.New("order: order number out of range")
	ErrBadChunk        = errors.New("order: chunk size must be >= 1")
	ErrNotPrimeModulus = errors.New("order: modulus must be >= 2")
	// ErrOrderOverflow reports the paper's unstated edge case: SC mod p can
	// only recover order numbers smaller than p, so when insertions push a
	// node's order number up to or past its own prime, that prime can no
	// longer encode the order. Tables constructed without a KeyFunc return
	// this error; tables with a KeyFunc transparently re-key the node.
	ErrOrderOverflow = errors.New("order: order number not representable modulo its prime key")
)

// record is one row of the SC table: an SC value capturing the order
// numbers of the nodes whose self-labels appear in primes. The paper stores
// (SC value, max prime); we additionally cache the member primes and their
// current order numbers so recomputation is direct. The SC value remains
// authoritative: Verify recovers every order via SC mod p and checks the
// cache. sc is always the canonical solution, in [0, mod), where mod is the
// product of primes; an empty record holds 0 mod 1.
type record struct {
	primes   []uint64
	orders   []int
	maxPrime uint64
	sc       *big.Int
	mod      *big.Int
}

// recompute re-solves the record's SC value from its congruences.
func (r *record) recompute() error {
	cs := make([]numtheory.Congruence, len(r.primes))
	for i, p := range r.primes {
		if uint64(r.orders[i]) >= p {
			return fmt.Errorf("%w: order %d, key %d", ErrOrderOverflow, r.orders[i], p)
		}
		cs[i] = numtheory.Congruence{Mod: p, Rem: uint64(r.orders[i])}
	}
	sc, mod, err := numtheory.CRTGarner(cs)
	if err != nil {
		return err
	}
	r.sc, r.mod = sc, mod
	return nil
}

// KeyFunc supplies a fresh, never-before-used prime strictly greater than
// min. It is called when a node's current prime key overflows (see
// ErrOrderOverflow); the prime labeling scheme wires this to its own prime
// source so order keys never collide with self-labels.
type KeyFunc func(min uint64) uint64

// KeyChange records that a node's order key was replaced during an
// InsertBetween.
type KeyChange struct {
	Old, New uint64
}

// ShiftInfo describes the order-number shift a successful insertion
// performed on pre-existing nodes: every node whose order number was >= From
// had it raised by Delta. A zero ShiftInfo (Delta == 0) means the insertion
// found room without moving anyone — the sparse midpoint or append case.
type ShiftInfo struct {
	From  int
	Delta int
}

// Table is the SC table for one document.
type Table struct {
	chunk   int
	records []*record
	byPrime map[uint64]int // prime key -> record index
	nextOrd int            // one past the high-water mark (see MaxOrder)
	newKey  KeyFunc        // nil: overflow is an error
	spacing int            // order-number spacing; 0/1 = dense (the paper)
	// lastShift records the shift performed by the most recent successful
	// Append or InsertBetween (see LastShift).
	lastShift ShiftInfo
}

// NewTable returns an empty SC table grouping up to chunk nodes per SC
// value. The paper uses chunk=5 in its Section 5.4 experiment; chunk=1
// degenerates to storing the order number directly and larger chunks trade
// bigger SC integers for fewer records.
//
// newKey may be nil, in which case an insertion that makes some order
// number unrepresentable (>= its prime key) fails with ErrOrderOverflow.
func NewTable(chunk int, newKey KeyFunc) (*Table, error) {
	if chunk < 1 {
		return nil, ErrBadChunk
	}
	return &Table{chunk: chunk, byPrime: make(map[uint64]int), nextOrd: 1, newKey: newKey}, nil
}

// Chunk returns the configured record capacity.
func (t *Table) Chunk() int { return t.chunk }

// Len returns the number of nodes tracked.
func (t *Table) Len() int { return len(t.byPrime) }

// RecordCount returns the number of SC records (rows of the table).
func (t *Table) RecordCount() int { return len(t.records) }

// MaxOrder returns the table's high-water mark: the largest order number
// it has assigned, raised by every shift since and left in place when the
// member that holds it is deleted (0 before any assignment). An append
// takes MaxOrder plus the spacing.
func (t *Table) MaxOrder() int { return t.nextOrd - 1 }

// LastShift reports the order-number shift performed by the most recent
// successful Append or InsertBetween. A caller that mirrors order
// numbers elsewhere can use it to patch its copy instead of recomputing
// every order: because order numbers are strictly
// increasing in document order, "order >= From" identifies exactly the nodes
// at or after the insertion point. The value is only meaningful immediately
// after a successful insertion; failed operations leave it unspecified.
func (t *Table) LastShift() ShiftInfo { return t.lastShift }

// Append registers prime with the next sequential order number — the bulk
// path used when labeling a document whose nodes arrive in document order.
func (t *Table) Append(prime uint64) error {
	if prime < 2 {
		return ErrNotPrimeModulus
	}
	if _, dup := t.byPrime[prime]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicatePrime, prime)
	}
	ord := t.MaxOrder() + t.Spacing()
	if uint64(ord) >= prime {
		return fmt.Errorf("%w: order %d, key %d", ErrOrderOverflow, ord, prime)
	}
	if _, err := t.place(prime, ord); err != nil {
		return err
	}
	t.nextOrd = ord + 1
	t.lastShift = ShiftInfo{}
	return nil
}

// place adds prime with order ord (which must be < prime) to the last
// record, or to a fresh one when the last is full, as in the paper's Figure
// 11/12 walkthrough ("search for the largest maximum prime ... and update
// it"). The record's SC value is extended by one Garner step instead of
// being re-solved. It returns the record, or an error, with nothing
// changed, if prime shares a factor with the record's other keys (a fresh
// record accepts any prime >= 2).
func (t *Table) place(prime uint64, ord int) (*record, error) {
	n := len(t.records)
	if n == 0 || len(t.records[n-1].primes) >= t.chunk {
		t.records = append(t.records, &record{sc: new(big.Int), mod: big.NewInt(1)})
		n++
	}
	r := t.records[n-1]
	if err := numtheory.CRTExtend(r.sc, r.mod, numtheory.Congruence{Mod: prime, Rem: uint64(ord)}); err != nil {
		return nil, err
	}
	r.primes = append(r.primes, prime)
	r.orders = append(r.orders, ord)
	if prime > r.maxPrime {
		r.maxPrime = prime
	}
	t.byPrime[prime] = n - 1
	return r, nil
}

// checkShift returns the error shift(from, delta) would fail with, without
// changing anything: on a table without a KeyFunc, a member whose shifted
// order would reach its key cannot be re-keyed. InsertBetween calls it
// before its first mutation, so a failed insert leaves the table as it was.
func (t *Table) checkShift(from, delta int) error {
	if t.newKey != nil {
		return nil
	}
	for _, r := range t.records {
		for i, o := range r.orders {
			if o >= from && uint64(o+delta) >= r.primes[i] {
				return fmt.Errorf("%w: order %d, key %d", ErrOrderOverflow, o+delta, r.primes[i])
			}
		}
	}
	return nil
}

// checkPlace returns the error place(prime, ...) would fail with, without
// changing anything: ErrNotCoprime when prime shares a factor with the keys
// of the record that would receive it. A shift leaves that record's keys
// alone unless it re-keys a member, which takes a fresh prime from the
// KeyFunc.
func (t *Table) checkPlace(prime uint64) error {
	n := len(t.records)
	if n == 0 || len(t.records[n-1].primes) >= t.chunk {
		return nil // a fresh record accepts any key
	}
	if numtheory.GCD(numtheory.RemUint64(t.records[n-1].mod, prime), prime) != 1 {
		return fmt.Errorf("%w: key %d", numtheory.ErrNotCoprime, prime)
	}
	return nil
}

// shift raises by delta the order number of every member at or after from,
// re-keying members whose new order outgrows their prime, and brings the SC
// value of every record it moved up to date. Most such records need no CRT
// re-solve: if all members moved and none was re-keyed, each congruence
// x ≡ o (mod p) became x ≡ o+delta (mod p), which x+delta solves, and the
// solution is unique modulo the record's modulus M — so (sc + delta) mod M is
// exactly what the re-solve would return. Only a record that straddles from
// or holds a re-keyed member is re-solved.
//
// It returns the number of records written and the last of them (nil when
// nothing moved), with the key changes appended to rekeys in the order the
// KeyFunc was called. Callers run checkShift first: an error from shift
// itself means the table is already partly shifted.
func (t *Table) shift(from, delta int, rekeys []KeyChange) (written int, last *record, _ []KeyChange, err error) {
	d := big.NewInt(int64(delta))
	for _, r := range t.records {
		moved, rekeyed := 0, false
		for i, o := range r.orders {
			if o < from {
				continue
			}
			o += delta
			r.orders[i] = o
			moved++
			if uint64(o) >= r.primes[i] {
				kc, err := t.rekey(r, i)
				if err != nil {
					return 0, nil, nil, err
				}
				rekeys = append(rekeys, kc)
				rekeyed = true
			}
		}
		if moved == 0 {
			continue
		}
		written++
		last = r
		if moved < len(r.orders) || rekeyed {
			if err := r.recompute(); err != nil {
				return 0, nil, nil, err
			}
			continue
		}
		// While no member outgrew its key, sc+delta < M: a wrap needs
		// sc = M−k with k ≤ delta < every key p, so each order was p−k and
		// has now reached p. The Mod keeps the identity exact regardless,
		// for any delta.
		r.sc.Add(r.sc, d)
		if r.sc.Cmp(r.mod) >= 0 {
			r.sc.Mod(r.sc, r.mod)
		}
	}
	return written, last, rekeys, nil
}

// rekey replaces the i-th member's prime of r, whose order it can no
// longer encode, with a fresh key. The caller brings r's SC value up to
// date.
func (t *Table) rekey(r *record, i int) (KeyChange, error) {
	if t.newKey == nil {
		return KeyChange{}, fmt.Errorf("%w: order %d, key %d", ErrOrderOverflow, r.orders[i], r.primes[i])
	}
	np := t.newKey(uint64(r.orders[i]))
	kc := KeyChange{Old: r.primes[i], New: np}
	ri := t.byPrime[r.primes[i]]
	delete(t.byPrime, r.primes[i])
	t.byPrime[np] = ri
	r.primes[i] = np
	if np > r.maxPrime {
		r.maxPrime = np
	}
	return kc, nil
}

// OrderOf returns the order number of the node whose self-label is prime,
// recovered from the record's SC value as SC mod prime (the paper's lookup).
func (t *Table) OrderOf(prime uint64) (int, error) {
	ri, ok := t.byPrime[prime]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPrime, prime)
	}
	return int(numtheory.RemUint64(t.records[ri].sc, prime)), nil
}

// Before reports whether the node labeled pa precedes the node labeled pb
// in document order.
func (t *Table) Before(pa, pb uint64) (bool, error) {
	oa, err := t.OrderOf(pa)
	if err != nil {
		return false, err
	}
	ob, err := t.OrderOf(pb)
	if err != nil {
		return false, err
	}
	return oa < ob, nil
}

// Delete removes the node labeled prime from the table. Deletion never
// changes any other node's order number (Section 4.2); only the record that
// held the prime is recomputed. A record whose last member is deleted is
// dropped from the table entirely: CRT over zero congruences solves to the
// degenerate (SC=0 mod 1) row, which would otherwise sit in the table
// forever — insertions only ever refill the final record, so an empty row
// in the middle is dead weight for every future shifting insert. Only the
// members of the records after a dropped one are re-indexed.
func (t *Table) Delete(prime uint64) error {
	ri, ok := t.byPrime[prime]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPrime, prime)
	}
	r := t.records[ri]
	for i, p := range r.primes {
		if p == prime {
			r.primes = append(r.primes[:i], r.primes[i+1:]...)
			r.orders = append(r.orders[:i], r.orders[i+1:]...)
			break
		}
	}
	delete(t.byPrime, prime)
	if len(r.primes) == 0 {
		n := len(t.records)
		copy(t.records[ri:], t.records[ri+1:])
		t.records[n-1] = nil
		t.records = t.records[:n-1]
		for _, later := range t.records[ri:] {
			for _, p := range later.primes {
				t.byPrime[p]--
			}
		}
		return nil
	}
	r.maxPrime = 0
	for _, p := range r.primes {
		if p > r.maxPrime {
			r.maxPrime = p
		}
	}
	return r.recompute()
}

// Compact re-packs the table after deletions: members are gathered in
// order-number order and refilled into full records, dropping emptied rows.
// Lookup results are unchanged; only the row layout (and therefore the cost
// of future shifting inserts) improves. Returns the number of records
// recomputed. A failed compaction (keys that share a factor landing in one
// record) changes nothing.
func (t *Table) Compact() (int, error) {
	var ms []Member
	for _, r := range t.records {
		for i, p := range r.primes {
			ms = append(ms, Member{Prime: p, Order: r.orders[i]})
		}
	}
	sortMembersByOrder(ms)
	var records []*record
	byPrime := make(map[uint64]int, len(ms))
	for start := 0; start < len(ms); start += t.chunk {
		end := start + t.chunk
		if end > len(ms) {
			end = len(ms)
		}
		r := &record{}
		for _, m := range ms[start:end] {
			r.primes = append(r.primes, m.Prime)
			r.orders = append(r.orders, m.Order)
			if m.Prime > r.maxPrime {
				r.maxPrime = m.Prime
			}
			byPrime[m.Prime] = len(records)
		}
		if err := r.recompute(); err != nil {
			return 0, err
		}
		records = append(records, r)
	}
	t.records, t.byPrime = records, byPrime
	return len(t.records), nil
}

// sortMembersByOrder sorts compaction inputs by order number. Small inputs
// use an insertion sort (they are usually already nearly ordered — records
// fill in document order); anything larger goes to sort.SliceStable, because
// a long history of order-shuffling InsertBetween calls can leave the
// concatenated member list arbitrarily permuted and insertion sort O(n²).
func sortMembersByOrder(ms []Member) {
	if len(ms) <= 32 {
		for i := 1; i < len(ms); i++ {
			for j := i; j > 0 && ms[j].Order < ms[j-1].Order; j-- {
				ms[j], ms[j-1] = ms[j-1], ms[j]
			}
		}
		return
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Order < ms[j].Order })
}

// SCValues returns a copy of the table rows as (SC value, max prime) pairs
// — the representation the paper's Figure 10/12 show.
func (t *Table) SCValues() []SCRow {
	rows := make([]SCRow, len(t.records))
	for i, r := range t.records {
		rows[i] = SCRow{SC: new(big.Int).Set(r.sc), MaxPrime: r.maxPrime, Members: len(r.primes)}
	}
	return rows
}

// SCRow is one visible row of the SC table.
type SCRow struct {
	SC       *big.Int
	MaxPrime uint64
	Members  int
}

// Verify checks internal consistency: every SC value lies in [0, mod),
// every cached order number matches the one recovered from its record's SC
// value and lies below the high-water mark, all order numbers are distinct,
// and every prime maps to the record that contains it.
func (t *Table) Verify() error {
	seen := make(map[int]uint64)
	for ri, r := range t.records {
		if len(r.primes) > t.chunk {
			return fmt.Errorf("order: record %d exceeds chunk size", ri)
		}
		if r.sc.Sign() < 0 || r.sc.Cmp(r.mod) >= 0 {
			return fmt.Errorf("order: record %d SC value %v outside [0, %v)", ri, r.sc, r.mod)
		}
		for i, p := range r.primes {
			got := int(numtheory.RemUint64(r.sc, p))
			if got != r.orders[i] {
				return fmt.Errorf("order: SC mod %d = %d, cached order %d", p, got, r.orders[i])
			}
			if r.orders[i] >= t.nextOrd {
				return fmt.Errorf("order: order %d of key %d not below the high-water mark %d", r.orders[i], p, t.nextOrd)
			}
			if other, dup := seen[r.orders[i]]; dup {
				return fmt.Errorf("order: order number %d held by both %d and %d", r.orders[i], other, p)
			}
			seen[r.orders[i]] = p
			if t.byPrime[p] != ri {
				return fmt.Errorf("order: prime %d indexed to record %d, found in %d", p, t.byPrime[p], ri)
			}
		}
	}
	if len(seen) != len(t.byPrime) {
		return fmt.Errorf("order: index has %d primes, records hold %d", len(t.byPrime), len(seen))
	}
	return nil
}
