package prime

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
// The format is a versioned, varint-packed binary stream; it is an internal
// format with no cross-version compatibility promise.

// magic identifies the stream format and version.
var magic = []byte("PRIMELBL\x01")

// ErrBadFormat reports a stream that is not a valid labeled document.
var ErrBadFormat = errors.New("prime: invalid labeled-document stream")

type writer struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) uint(v int) { w.uvarint(uint64(v)) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

func (w *writer) bool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	w.uvarint(v)
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return v
}

func (r *reader) uint() int { return int(r.uvarint()) }

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > 1<<28 {
		r.err = fmt.Errorf("%w: unreasonable string length %d", ErrBadFormat, n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return ""
	}
	return string(buf)
}

func (r *reader) bool() bool { return r.uvarint() != 0 }

// Marshal writes the labeled document to w.
func (l *Labeling) Marshal(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	if _, err := w.w.Write(magic); err != nil {
		return err
	}
	// Options.
	o := l.opts
	w.uint(o.ReservedPrimes + 1) // shift so -1 (auto) encodes as 0
	w.bool(o.PowerOfTwoLeaves)
	w.uint(o.Power2Threshold)
	w.bool(o.TrackOrder)
	w.uint(o.SCChunk)
	w.uint(o.OrderSpacing)
	w.bool(o.RecyclePrimes)
	// Tree + per-element label parts, interleaved in preorder.
	l.marshalNode(w, l.doc.Root)
	// childNum counters, keyed by preorder element index.
	idx := xmltree.DocOrderIndex(l.doc)
	w.uint(len(l.power2Count))
	for n, c := range l.power2Count {
		w.uint(idx[n])
		w.uint(c)
	}
	// Prime source.
	next, reserved, issued := l.src.SnapshotState()
	w.uvarint(next)
	w.uint(issued)
	w.uint(len(reserved))
	for _, p := range reserved {
		w.uvarint(p)
	}
	// Recycling pool.
	w.uint(l.free.Len())
	for _, p := range l.free {
		w.uvarint(p)
	}
	// SC table.
	w.bool(l.sct != nil)
	if l.sct != nil {
		chunk, spacing, nextOrd, records := l.sct.Snapshot()
		w.uint(chunk)
		w.uint(spacing)
		w.uint(nextOrd)
		w.uint(len(records))
		for _, ms := range records {
			w.uint(len(ms))
			for _, m := range ms {
				w.uvarint(m.Prime)
				w.uint(m.Order)
			}
		}
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// marshalNode writes one node (and, for elements, its label parts and
// children) in preorder.
func (l *Labeling) marshalNode(w *writer, n *xmltree.Node) {
	if n.Kind == xmltree.TextNode {
		w.uint(1)
		w.str(n.Data)
		return
	}
	w.uint(0)
	w.str(n.Name)
	w.uint(len(n.Attrs))
	for _, a := range n.Attrs {
		w.str(a.Name)
		w.str(a.Value)
	}
	nl := l.labels[n]
	w.uvarint(nl.selfPrime)
	w.uint(nl.exp)
	w.uvarint(nl.orderKey)
	w.uint(len(n.Children))
	for _, c := range n.Children {
		l.marshalNode(w, c)
	}
}

// Unmarshal reads a labeled document produced by Marshal and verifies its
// consistency.
func Unmarshal(in io.Reader) (*Labeling, error) {
	r := &reader{r: bufio.NewReader(in)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.r, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	var opts Options
	opts.ReservedPrimes = r.uint() - 1
	opts.PowerOfTwoLeaves = r.bool()
	opts.Power2Threshold = r.uint()
	opts.TrackOrder = r.bool()
	opts.SCChunk = r.uint()
	opts.OrderSpacing = r.uint()
	opts.RecyclePrimes = r.bool()

	l := &Labeling{
		opts:        opts,
		labels:      make(map[*xmltree.Node]*nodeLabel),
		byKey:       make(map[uint64]*xmltree.Node),
		power2Count: make(map[*xmltree.Node]int),
		fastPath:    true,
	}
	root, err := l.unmarshalNode(r, nil, true)
	if err != nil {
		return nil, err
	}
	l.doc = xmltree.NewDocument(root)

	elements := xmltree.Elements(root)
	childNumCount := r.uint()
	if r.err != nil {
		return nil, r.err
	}
	if childNumCount < 0 || childNumCount > len(elements) {
		return nil, fmt.Errorf("%w: unreasonable childNum count", ErrBadFormat)
	}
	for i, count := 0, childNumCount; i < count; i++ {
		idx := r.uint()
		v := r.uint()
		if r.err != nil {
			return nil, r.err
		}
		if idx < 0 || idx >= len(elements) {
			return nil, fmt.Errorf("%w: childNum index %d out of range", ErrBadFormat, idx)
		}
		l.power2Count[elements[idx]] = v
	}

	next := r.uvarint()
	issued := r.uint()
	reservedCount := r.uint()
	if r.err != nil {
		return nil, r.err
	}
	if reservedCount < 0 || reservedCount > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable reserved pool", ErrBadFormat)
	}
	reserved := make([]uint64, reservedCount)
	for i := range reserved {
		reserved[i] = r.uvarint()
	}
	l.src = primes.Resume(next, reserved, issued)

	freeCount := r.uint()
	if r.err != nil {
		return nil, r.err
	}
	if freeCount < 0 || freeCount > 1<<24 {
		return nil, fmt.Errorf("%w: unreasonable free pool", ErrBadFormat)
	}
	for i := 0; i < freeCount; i++ {
		l.free = append(l.free, r.uvarint())
	}
	heap.Init(&l.free)

	if r.bool() {
		chunk := r.uint()
		spacing := r.uint()
		nextOrd := r.uint()
		recordCount := r.uint()
		if r.err != nil {
			return nil, r.err
		}
		if recordCount < 0 || recordCount > 1<<24 {
			return nil, fmt.Errorf("%w: unreasonable record count", ErrBadFormat)
		}
		records := make([][]order.Member, recordCount)
		for i := range records {
			memberCount := r.uint()
			if r.err != nil {
				return nil, r.err
			}
			if memberCount < 0 || memberCount > 1<<20 {
				return nil, fmt.Errorf("%w: unreasonable member count", ErrBadFormat)
			}
			ms := make([]order.Member, memberCount)
			for j := range ms {
				ms[j] = order.Member{Prime: r.uvarint(), Order: r.uint()}
			}
			records[i] = ms
		}
		if r.err != nil {
			return nil, r.err
		}
		tbl, err := order.Restore(chunk, spacing, nextOrd, records, func(min uint64) uint64 {
			for {
				p := l.src.Next()
				if p > min {
					return p
				}
			}
		})
		if err != nil {
			return nil, err
		}
		l.sct = tbl
	}
	if r.err != nil {
		return nil, r.err
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

// unmarshalNode reads one node written by marshalNode. parent is the
// parent's label state (nil for the root), from which the full label and
// the depth/signature fast-path fields are rederived.
func (l *Labeling) unmarshalNode(r *reader, parent *nodeLabel, isRoot bool) (*xmltree.Node, error) {
	kind := r.uint()
	if r.err != nil {
		return nil, r.err
	}
	switch kind {
	case 1:
		if isRoot {
			return nil, fmt.Errorf("%w: text node as root", ErrBadFormat)
		}
		return xmltree.NewText(r.str()), nil
	case 0:
		n := xmltree.NewElement(r.str())
		for i, count := 0, r.uint(); i < count; i++ {
			if r.err != nil {
				return nil, r.err
			}
			n.Attrs = append(n.Attrs, xmltree.Attr{Name: r.str(), Value: r.str()})
		}
		nl := &nodeLabel{
			selfPrime: r.uvarint(),
			exp:       r.uint(),
			orderKey:  r.uvarint(),
		}
		if r.err != nil {
			return nil, r.err
		}
		// A forged exponent would make selfBig allocate 2^exp bits; no
		// legitimate Power2Threshold comes anywhere near this bound.
		if nl.exp < 0 || nl.exp > 1<<16 {
			return nil, fmt.Errorf("%w: unreasonable leaf exponent %d", ErrBadFormat, nl.exp)
		}
		if isRoot && (nl.selfPrime != 0 || nl.exp != 0) {
			return nil, fmt.Errorf("%w: root carries a self-label", ErrBadFormat)
		}
		l.derive(nl, parent)
		l.labels[n] = nl
		childCount := r.uint()
		if r.err != nil {
			return nil, r.err
		}
		if childCount > 1<<24 {
			return nil, fmt.Errorf("%w: unreasonable child count", ErrBadFormat)
		}
		for i := 0; i < childCount; i++ {
			c, err := l.unmarshalNode(r, nl, false)
			if err != nil {
				return nil, err
			}
			if err := n.AppendChild(c); err != nil {
				return nil, err
			}
		}
		return n, nil
	default:
		return nil, fmt.Errorf("%w: unknown node kind %d", ErrBadFormat, kind)
	}
}
