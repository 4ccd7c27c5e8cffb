package prefix

import (
	"fmt"
	"io"
	"slices"

	"primelabel/internal/labeling/wire"
	"primelabel/internal/xmltree"
)

// Persistence for prefix- and Dewey-labeled documents.
//
// Prefix sibling codes are history-dependent: unordered inserts take the
// next unused code past whatever was ever issued under a parent, and deletes
// leave gaps, so no relabeling pass regenerates them. Marshal stores each
// node's own sibling code plus the per-parent last-issued code (the
// allocator state appends resume from); full labels are parent label +
// code and are recomputed in one top-down pass on load. Dewey labels store
// the node's own path component the same way.

// pfxMagic and dwyMagic identify the two persistence formats and versions.
var (
	pfxMagic = []byte("PFXLBL\x01")
	dwyMagic = []byte("DWYLBL\x01")
)

// writeBits appends one bit string (length in bits plus packed bytes).
func writeBits(w *wire.Writer, b Bits) {
	w.Int(b.n)
	w.Bytes(b.data)
}

// readBits reads a bit string written by writeBits.
func readBits(r *wire.Reader) Bits {
	n := r.Int()
	data := r.Bytes()
	if r.Err() != nil {
		return Bits{}
	}
	if len(data) != (n+7)/8 {
		r.Fail("bit string length %d does not match %d data bytes", n, len(data))
		return Bits{}
	}
	return Bits{data: data, n: n}
}

// Marshal writes the prefix-labeled document — variant configuration, tree,
// each node's sibling code, and the per-parent code allocator state — to out
// in the internal binary format read by Unmarshal.
func (l *Labeling) Marshal(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Raw(pfxMagic)
	w.Int(int(l.scheme.Variant))
	w.Bool(l.scheme.OrderPreserving)
	wire.WriteTree(w, l.doc.Root, func(n *xmltree.Node) {
		nl := l.labels[n]
		if nl == nil {
			w.Fail("prefix: unlabeled element %s", xmltree.PathTo(n))
			return
		}
		writeBits(w, nl.code)
		writeBits(w, l.lastCode[n])
	})
	return w.Flush()
}

// Unmarshal reads a prefix labeling produced by Marshal, recomputing full
// labels from the stored sibling codes and verifying that every non-root
// element carries a code the allocator issues, that sibling codes are
// prefix-free (and ordered, under OrderPreserving), and that each parent's
// last issued code sorts at or after every child's, so the next code an
// insert takes is new.
func Unmarshal(in io.Reader) (*Labeling, error) {
	r := wire.NewReader(in)
	r.Expect(pfxMagic)
	variant := Variant(r.Int())
	if variant != Prefix1 && variant != Prefix2 {
		r.Fail("unknown prefix variant %d", int(variant))
	}
	l := &Labeling{
		scheme:   Scheme{Variant: variant, OrderPreserving: r.Bool()},
		labels:   make(map[*xmltree.Node]*pfxLabel),
		lastCode: make(map[*xmltree.Node]Bits),
	}
	root, err := wire.ReadTree(r, func(n *xmltree.Node) error {
		l.labels[n] = &pfxLabel{code: readBits(r)}
		l.lastCode[n] = readBits(r)
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	l.doc = xmltree.NewDocument(root)
	// Second pass: full label = parent's full label + own code.
	var relabel func(n *xmltree.Node) error
	relabel = func(n *xmltree.Node) error {
		nl := l.labels[n]
		if n.Parent != nil {
			if nl.code.Len() == 0 {
				return fmt.Errorf("%w: empty sibling code on non-root %s", wire.ErrBadFormat, xmltree.PathTo(n))
			}
			nl.label = l.labels[n.Parent].label.Append(nl.code)
		}
		kids := n.ElementChildren()
		if err := l.checkSiblingCodes(n, kids); err != nil {
			return err
		}
		for _, c := range kids {
			if err := relabel(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := relabel(root); err != nil {
		return nil, err
	}
	return l, nil
}

// checkSiblingCodes verifies that the sibling codes of parent's element
// children kids are prefix-free, so that no sibling reads as another's
// descendant, and, under OrderPreserving, rise in document order. Sorted,
// a set of codes is prefix-free when no code is a prefix of the next one.
// It also checks parent's allocator state: every code, and the last issued
// code unless it is empty, must be one nextSibCode issues, and no code may
// sort after the last issued one. Issued codes rise in Compare order and
// are mutually prefix-free, so the code the next append takes is then
// prefix-free with, and after, every sibling.
func (l *Labeling) checkSiblingCodes(parent *xmltree.Node, kids []*xmltree.Node) error {
	last := l.lastCode[parent]
	if last.Len() > 0 && !l.scheme.issuable(last) {
		return fmt.Errorf("%w: last issued code %s under %s is not a sibling code",
			wire.ErrBadFormat, last, xmltree.PathTo(parent))
	}
	codes := make([]Bits, len(kids))
	for i, c := range kids {
		codes[i] = l.labels[c].code
		if !l.scheme.issuable(codes[i]) || codes[i].Compare(last) > 0 {
			return fmt.Errorf("%w: sibling code %s under %s was never issued (last issued %s)",
				wire.ErrBadFormat, codes[i], xmltree.PathTo(parent), last)
		}
	}
	if !l.scheme.OrderPreserving {
		slices.SortFunc(codes, Bits.Compare)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i-1].Compare(codes[i]) >= 0 || codes[i].HasPrefix(codes[i-1]) {
			return fmt.Errorf("%w: sibling codes %s and %s under %s are not prefix-free and ordered",
				wire.ErrBadFormat, codes[i-1], codes[i], xmltree.PathTo(parent))
		}
	}
	return nil
}

// Scheme returns the variant configuration this labeling was built with.
func (l *Labeling) Scheme() Scheme { return l.scheme }

// Marshal writes the Dewey-labeled document — tree plus each node's own
// path component — to out in the internal binary format read by
// UnmarshalDewey.
func (l *DeweyLabeling) Marshal(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Raw(dwyMagic)
	wire.WriteTree(w, l.doc.Root, func(n *xmltree.Node) {
		d, ok := l.labels[n]
		if !ok {
			w.Fail("prefix: unlabeled element %s", xmltree.PathTo(n))
			return
		}
		if len(d) == 0 {
			w.Int(0) // root: empty label
			return
		}
		w.Int(d[len(d)-1])
	})
	return w.Flush()
}

// UnmarshalDewey reads a Dewey labeling produced by DeweyLabeling.Marshal,
// rebuilding full labels top-down and verifying that sibling components stay
// strictly increasing (the order invariant deletes and inserts preserve).
func UnmarshalDewey(in io.Reader) (*DeweyLabeling, error) {
	r := wire.NewReader(in)
	r.Expect(dwyMagic)
	components := make(map[*xmltree.Node]int)
	root, err := wire.ReadTree(r, func(n *xmltree.Node) error {
		components[n] = r.Int()
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	l := &DeweyLabeling{doc: xmltree.NewDocument(root), labels: make(map[*xmltree.Node]deweyLabel)}
	l.labels[root] = deweyLabel{}
	var build func(n *xmltree.Node) error
	build = func(n *xmltree.Node) error {
		base := l.labels[n]
		prev := 0
		for _, c := range n.ElementChildren() {
			comp := components[c]
			if comp <= prev {
				return fmt.Errorf("%w: sibling component %d not increasing (prev %d) under %s",
					wire.ErrBadFormat, comp, prev, xmltree.PathTo(n))
			}
			prev = comp
			lbl := make(deweyLabel, len(base)+1)
			copy(lbl, base)
			lbl[len(base)] = comp
			l.labels[c] = lbl
			if err := build(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(root); err != nil {
		return nil, err
	}
	return l, nil
}
