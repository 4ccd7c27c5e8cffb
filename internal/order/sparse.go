package order

import "fmt"

// Sparse ordering — an extension beyond the paper.
//
// The paper assigns dense order numbers 1, 2, 3, …, so an order-sensitive
// insertion must shift every following node's order and rewrite the
// affected SC records (Figure 18 measures exactly that cost). Nothing in
// the scheme requires density: only *relative* order matters. A table built
// with spacing G assigns orders G, 2G, 3G, …, and an insertion between two
// nodes takes the midpoint of their (usually open) gap — touching exactly
// one SC record. Shifting happens only when a gap is exhausted, and the
// shift re-opens gaps by moving followers a full spacing step.
//
// The price is larger order values: numbers grow toward N·G, so more nodes
// need order keys larger than their (small) self-labels, and SC values per
// record grow a few bits. BenchmarkAblationOrderSpacing quantifies the
// trade-off.

// NewTableSpaced returns an SC table whose order numbers are spaced G
// apart. spacing 1 is exactly the paper's dense behavior (NewTable).
func NewTableSpaced(chunk, spacing int, newKey KeyFunc) (*Table, error) {
	if spacing < 1 {
		return nil, fmt.Errorf("order: spacing must be >= 1, got %d", spacing)
	}
	t, err := NewTable(chunk, newKey)
	if err != nil {
		return nil, err
	}
	t.spacing = spacing
	return t, nil
}

// Spacing returns the configured order-number spacing.
func (t *Table) Spacing() int {
	if t.spacing == 0 {
		return 1
	}
	return t.spacing
}

// InsertBetween registers prime for a node inserted between the nodes with
// order numbers prevOrder and nextOrder (prevOrder 0 = front, nextOrder 0 =
// end). When the gap between the two is open, the new node takes the
// midpoint and only one SC record is written; otherwise the orders at and
// after nextOrder shift up by a full spacing step (re-opening gaps) before
// the midpoint is taken.
//
// Both orders must be current values from this table. It returns the SC
// records written (the paper's relabeling cost, Figure 18) and any order-key
// replacements the shift made necessary (see ErrOrderOverflow); a failed
// call changes nothing. On a dense table InsertBetween(p, o-1, o) is the
// paper's insert at order position o (Figures 11/12).
func (t *Table) InsertBetween(prime uint64, prevOrder, nextOrder int) (recordsUpdated int, rekeys []KeyChange, err error) {
	if prime < 2 {
		return 0, nil, ErrNotPrimeModulus
	}
	if _, dup := t.byPrime[prime]; dup {
		return 0, nil, fmt.Errorf("%w: %d", ErrDuplicatePrime, prime)
	}
	if prevOrder < 0 || (nextOrder != 0 && nextOrder <= prevOrder) {
		return 0, nil, fmt.Errorf("%w: between %d and %d", ErrBadOrder, prevOrder, nextOrder)
	}
	spacing := t.Spacing()
	var ord, written int
	var last *record
	var shift ShiftInfo
	exhausted := nextOrder != 0 && nextOrder-prevOrder <= 1
	switch {
	case nextOrder == 0:
		// Append after the current maximum.
		ord = t.MaxOrder() + spacing
	case !exhausted:
		// Open gap: take the midpoint, no shifting.
		ord = prevOrder + (nextOrder-prevOrder)/2
	default:
		// Exhausted gap: the shift below makes room right after prevOrder.
		ord = prevOrder + (spacing+1)/2
		if ord <= prevOrder {
			ord = prevOrder + 1
		}
	}
	rekeyed := uint64(ord) >= prime
	if rekeyed && t.newKey == nil {
		return 0, nil, fmt.Errorf("%w: order %d, key %d", ErrOrderOverflow, ord, prime)
	}
	if !rekeyed {
		// A re-keyed node takes a fresh prime, which any record accepts.
		if err := t.checkPlace(prime); err != nil {
			return 0, nil, err
		}
	}
	if exhausted {
		// Shift everything from nextOrder up by spacing, re-keying members
		// whose bumped order outgrows their prime.
		if err := t.checkShift(nextOrder, spacing); err != nil {
			return 0, nil, err
		}
		written, last, rekeys, err = t.shift(nextOrder, spacing, rekeys)
		if err != nil {
			return 0, nil, err
		}
		if written > 0 {
			// The global maximum moved up with the shift.
			t.nextOrd += spacing
			shift = ShiftInfo{From: nextOrder, Delta: spacing}
		}
	}
	if rekeyed {
		np := t.newKey(uint64(ord))
		rekeys = append(rekeys, KeyChange{Old: prime, New: np})
		prime = np
	}
	r, err := t.place(prime, ord)
	if err != nil {
		return 0, nil, err
	}
	if r != last {
		written++
	}
	if ord >= t.nextOrd {
		t.nextOrd = ord + 1
	}
	t.lastShift = shift
	return written, rekeys, nil
}
