package compact

import (
	"fmt"
	"io"

	"primelabel/internal/labeling/wire"
	"primelabel/internal/xmltree"
)

// Persistence for compact-labeled documents.
//
// Compact labels are regenerable for a freshly labeled document, but not
// after dynamic updates: deletions leave counter gaps, so the stored values
// are history-dependent — exactly the property that makes a label store
// persist labels verbatim instead of relabeling. Marshal stores every
// node's (start, end, level) triple alongside the tree; Unmarshal verifies
// the containment and level invariants on every parent-child edge before
// returning.

// cmpMagic identifies the compact persistence format and version.
var cmpMagic = []byte("CMPLBL\x01")

// Marshal writes the labeled document — tree and every node's label triple,
// plus the counter/level maxima used for bit accounting — to out in the
// internal binary format read by Unmarshal.
func (l *Labeling) Marshal(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Raw(cmpMagic)
	w.Uvarint(uint64(l.maxVal))
	w.Uvarint(uint64(l.maxLevel))
	wire.WriteTree(w, l.doc.Root, func(n *xmltree.Node) {
		nl, ok := l.labels[n]
		if !ok {
			// Every element of a consistent labeling is labeled; fail the
			// stream rather than write a hole.
			w.Fail("compact: unlabeled element %s", xmltree.PathTo(n))
			return
		}
		w.Uvarint(uint64(nl.Start))
		w.Uvarint(uint64(nl.End))
		w.Uvarint(uint64(nl.Level))
	})
	return w.Flush()
}

// Unmarshal reads a labeled document produced by Marshal and verifies the
// containment and level invariants before returning.
func Unmarshal(in io.Reader) (*Labeling, error) {
	r := wire.NewReader(in)
	r.Expect(cmpMagic)
	l := &Labeling{
		labels: make(map[*xmltree.Node]Label),
	}
	l.maxVal = readU32(r, "max counter")
	l.maxLevel = readU32(r, "max level")
	root, err := wire.ReadTree(r, func(n *xmltree.Node) error {
		l.labels[n] = Label{
			Start: readU32(r, "start"),
			End:   readU32(r, "end"),
			Level: readU32(r, "level"),
		}
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	l.doc = xmltree.NewDocument(root)
	if err := l.checkRestored(); err != nil {
		return nil, err
	}
	return l, nil
}

// readU32 reads one uvarint and rejects values outside the fixed 32-bit
// label fields.
func readU32(r *wire.Reader, what string) uint32 {
	v := r.Uvarint()
	if v > 0xffffffff {
		r.Fail("compact: %s %d overflows 32 bits", what, v)
		return 0
	}
	return uint32(v)
}

// checkRestored validates a just-unmarshaled labeling: root at level 0,
// start < end and per-edge containment, levels increasing by one per edge,
// sibling ranges disjoint and in document order, and the stored maxima
// covering every label.
func (l *Labeling) checkRestored() error {
	rl := l.labels[l.doc.Root]
	if rl.Level != 0 {
		return fmt.Errorf("%w: root level %d", wire.ErrBadFormat, rl.Level)
	}
	for _, n := range xmltree.Elements(l.doc.Root) {
		nl := l.labels[n]
		if nl.Start >= nl.End {
			return fmt.Errorf("%w: empty range (%d,%d)", wire.ErrBadFormat, nl.Start, nl.End)
		}
		var prev *Label
		for _, c := range n.ElementChildren() {
			cl := l.labels[c]
			if prev != nil && prev.End >= cl.Start {
				return fmt.Errorf("%w: sibling ranges (%d,%d) and (%d,%d) overlap or are out of order",
					wire.ErrBadFormat, prev.Start, prev.End, cl.Start, cl.End)
			}
			prev = &cl
		}
		if nl.End > l.maxVal {
			return fmt.Errorf("%w: label (%d,%d) exceeds stored max %d", wire.ErrBadFormat, nl.Start, nl.End, l.maxVal)
		}
		if nl.Level > l.maxLevel {
			return fmt.Errorf("%w: level %d exceeds stored max %d", wire.ErrBadFormat, nl.Level, l.maxLevel)
		}
		if n.Parent == nil {
			continue
		}
		pl := l.labels[n.Parent]
		if pl.Level+1 != nl.Level {
			return fmt.Errorf("%w: level %d under parent level %d", wire.ErrBadFormat, nl.Level, pl.Level)
		}
		if !pl.Contains(nl) {
			return fmt.Errorf("%w: label (%d,%d) not contained in parent (%d,%d)",
				wire.ErrBadFormat, nl.Start, nl.End, pl.Start, pl.End)
		}
	}
	return nil
}
