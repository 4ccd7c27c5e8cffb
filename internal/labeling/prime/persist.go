package prime

import (
	"container/heap"
	"fmt"
	"io"
	"sort"

	"primelabel/internal/labeling/wire"
	"primelabel/internal/order"
	"primelabel/internal/primes"
	"primelabel/internal/xmltree"
)

// Persistence for prime-labeled documents.
//
// Labels assigned by a static pass are deterministic, but after dynamic
// updates they cannot be regenerated — the whole point of the scheme is
// that inserted nodes keep labels no relabeling pass would produce. Marshal
// therefore captures the complete state: the tree, every node's self-label
// parts and order key, the Figure 7 childNum counters, the prime source's
// resume point, the recycling pool, and the SC table rows. Unmarshal
// rebuilds the labeling and verifies every invariant (Check) before
// returning, so a corrupted or tampered stream cannot produce an
// inconsistent labeling. Full labels are *not* stored — they are products
// of the stored parts and are recomputed in one pass.
//
// The format is a versioned, varint-packed binary stream written with
// internal/labeling/wire, the tree and each element's label parts
// interleaved in preorder; it is an internal format with no cross-version
// compatibility promise.

// magic identifies the stream format and version.
var magic = []byte("PRIMELBL\x01")

// maxResume bounds the prime source's resume point. Every grow of the
// source sieves with the primes up to the square root of where it stands,
// so a resume point near 2^64 could not continue; 2^48 lies past the
// π(2^48) ≈ 8.5×10^12 primes any document could have handed out. It also
// bounds the SC table's spacing and high-water mark, since an append takes
// order mark−1+spacing and draws a key above it. Updates keep the mark
// below the next prime plus spacing × the shifts since the last append,
// so a labeling passes the bound only after its keys do, or after
// 2^48/spacing shifts with no append between them.
const maxResume = 1 << 48

// Marshal writes the labeled document to w.
func (l *Labeling) Marshal(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Raw(magic)
	// Options.
	o := l.opts
	w.Int(o.ReservedPrimes + 1) // shift so -1 (auto) encodes as 0
	w.Bool(o.PowerOfTwoLeaves)
	w.Int(o.Power2Threshold)
	w.Bool(o.TrackOrder)
	w.Int(o.SCChunk)
	w.Int(o.OrderSpacing)
	w.Bool(o.RecyclePrimes)
	// Tree + per-element label parts, interleaved in preorder.
	wire.WriteTree(w, l.doc.Root, func(n *xmltree.Node) {
		nl := l.labels[n]
		w.Uvarint(nl.selfPrime)
		w.Int(nl.exp)
		w.Uvarint(nl.orderKey)
	})
	// childNum counters, keyed by preorder element index and written in
	// index order, so that equal states marshal to equal bytes.
	idx := xmltree.DocOrderIndex(l.doc)
	counts := make([][2]int, 0, len(l.power2Count))
	for n, c := range l.power2Count {
		counts = append(counts, [2]int{idx[n], c})
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i][0] < counts[j][0] })
	w.Int(len(counts))
	for _, e := range counts {
		w.Int(e[0])
		w.Int(e[1])
	}
	// Prime source.
	next, reserved, issued := l.src.SnapshotState()
	w.Uvarint(next)
	w.Int(issued)
	w.Int(len(reserved))
	for _, p := range reserved {
		w.Uvarint(p)
	}
	// Recycling pool.
	w.Int(l.free.Len())
	for _, p := range l.free {
		w.Uvarint(p)
	}
	// SC table.
	w.Bool(l.sct != nil)
	if l.sct != nil {
		chunk, spacing, nextOrd, records := l.sct.Snapshot()
		w.Int(chunk)
		w.Int(spacing)
		w.Int(nextOrd)
		w.Int(len(records))
		for _, ms := range records {
			w.Int(len(ms))
			for _, m := range ms {
				w.Uvarint(m.Prime)
				w.Int(m.Order)
			}
		}
	}
	return w.Flush()
}

// Unmarshal reads a labeled document produced by Marshal and verifies its
// consistency.
func Unmarshal(in io.Reader) (*Labeling, error) {
	r := wire.NewReader(in)
	r.Expect(magic)
	var opts Options
	opts.ReservedPrimes = r.Int() - 1
	opts.PowerOfTwoLeaves = r.Bool()
	opts.Power2Threshold = r.Int()
	opts.TrackOrder = r.Bool()
	opts.SCChunk = r.Int()
	opts.OrderSpacing = r.Int()
	opts.RecyclePrimes = r.Bool()

	l := &Labeling{
		opts:        opts,
		labels:      make(map[*xmltree.Node]*nodeLabel),
		byKey:       make(map[uint64]*xmltree.Node),
		power2Count: make(map[*xmltree.Node]int),
		fastPath:    true,
	}
	root, err := wire.ReadTree(r, func(n *xmltree.Node) error {
		nl := &nodeLabel{selfPrime: r.Uvarint(), exp: r.Int(), orderKey: r.Uvarint()}
		// A forged exponent would make selfBig allocate 2^exp bits; no
		// legitimate Power2Threshold comes anywhere near this bound.
		if nl.exp < 0 || nl.exp > 1<<16 {
			r.Fail("unreasonable leaf exponent %d", nl.exp)
		}
		l.labels[n] = nl
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	if rl := l.labels[root]; rl.selfPrime != 0 || rl.exp != 0 {
		return nil, fmt.Errorf("%w: root carries a self-label", wire.ErrBadFormat)
	}
	l.doc = xmltree.NewDocument(root)
	// Full labels are products of the stored parts: derive them parent
	// first, in preorder.
	elements := xmltree.Elements(root)
	for _, n := range elements {
		var parent *nodeLabel
		if n.Parent != nil {
			parent = l.labels[n.Parent]
		}
		l.derive(l.labels[n], parent)
	}

	// Counts are checked before they size anything; after a read error
	// every value is zero, and the error surfaces below.
	childNumCount := r.Int()
	if childNumCount < 0 || childNumCount > len(elements) {
		return nil, fmt.Errorf("%w: unreasonable childNum count", wire.ErrBadFormat)
	}
	for i := 0; i < childNumCount; i++ {
		idx, v := r.Int(), r.Int()
		if idx < 0 || idx >= len(elements) {
			return nil, fmt.Errorf("%w: childNum index %d out of range", wire.ErrBadFormat, idx)
		}
		l.power2Count[elements[idx]] = v
	}

	next := r.Uvarint()
	if next > maxResume {
		return nil, fmt.Errorf("%w: prime source resumes at %d, past %d", wire.ErrBadFormat, next, maxResume)
	}
	issued := r.Int()
	reservedCount := r.Int()
	if reservedCount < 0 || reservedCount > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable reserved pool", wire.ErrBadFormat)
	}
	reserved := make([]uint64, reservedCount)
	for i := range reserved {
		reserved[i] = r.Uvarint()
	}
	l.src = primes.Resume(next, reserved, issued)

	freeCount := r.Int()
	if freeCount < 0 || freeCount > 1<<24 {
		return nil, fmt.Errorf("%w: unreasonable free pool", wire.ErrBadFormat)
	}
	for i := 0; i < freeCount && r.Err() == nil; i++ {
		l.free = append(l.free, r.Uvarint())
	}
	heap.Init(&l.free)

	if r.Bool() {
		chunk := r.Int()
		spacing := r.Int()
		nextOrd := r.Int()
		if spacing > maxResume || nextOrd > maxResume {
			return nil, fmt.Errorf("%w: SC table spacing %d or high-water mark %d past %d", wire.ErrBadFormat, spacing, nextOrd, maxResume)
		}
		recordCount := r.Int()
		if recordCount < 0 || recordCount > 1<<24 {
			return nil, fmt.Errorf("%w: unreasonable record count", wire.ErrBadFormat)
		}
		// Records grow with the bytes actually read, not with the counts.
		var records [][]order.Member
		for i := 0; i < recordCount && r.Err() == nil; i++ {
			memberCount := r.Int()
			if memberCount < 0 || memberCount > 1<<20 {
				return nil, fmt.Errorf("%w: unreasonable member count", wire.ErrBadFormat)
			}
			ms := []order.Member{}
			for j := 0; j < memberCount && r.Err() == nil; j++ {
				ms = append(ms, order.Member{Prime: r.Uvarint(), Order: r.Int()})
			}
			records = append(records, ms)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		tbl, err := order.Restore(chunk, spacing, nextOrd, records, l.src.NextAbove)
		if err != nil {
			return nil, err
		}
		l.sct = tbl
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Rebuild the order-key index and verify everything.
	for _, n := range elements {
		if k := l.labels[n].orderKey; k != 0 {
			l.byKey[k] = n
		}
	}
	if err := l.Check(); err != nil {
		return nil, fmt.Errorf("prime: unmarshaled labeling inconsistent: %w", err)
	}
	return l, nil
}
