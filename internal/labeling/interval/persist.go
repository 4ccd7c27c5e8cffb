package interval

import (
	"fmt"
	"io"

	"primelabel/internal/labeling/wire"
	"primelabel/internal/xmltree"
)

// Persistence for interval-labeled documents.
//
// Interval labels are regenerable from the tree for a freshly labeled
// document, but not after dynamic updates: deletions leave gaps and
// slack-mode insertions place nodes inside reserved ranges, so the label
// values are history-dependent. Marshal therefore stores every node's
// (a, b, level) triple verbatim alongside the tree; Unmarshal verifies the
// variant's containment invariant on every parent-child edge before
// returning.

// ivMagic identifies the interval persistence format and version.
var ivMagic = []byte("IVLLBL\x01")

// Marshal writes the labeled document — tree, variant configuration, and
// every node's label triple — to out in the internal binary format read by
// Unmarshal.
func (l *Labeling) Marshal(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Raw(ivMagic)
	w.Int(int(l.variant))
	w.Int(l.slack)
	w.Int(l.maxVal)
	wire.WriteTree(w, l.doc.Root, func(n *xmltree.Node) {
		nl := l.labels[n]
		if nl == nil {
			// Every element of a consistent labeling is labeled; fail the
			// stream rather than write a hole.
			w.Fail("interval: unlabeled element %s", xmltree.PathTo(n))
			return
		}
		w.Int(nl.a)
		w.Int(nl.b)
		w.Int(nl.level)
	})
	return w.Flush()
}

// Unmarshal reads a labeled document produced by Marshal and verifies the
// containment and level invariants of the stored variant.
func Unmarshal(in io.Reader) (*Labeling, error) {
	r := wire.NewReader(in)
	r.Expect(ivMagic)
	variant := Variant(r.Int())
	if variant != XISS && variant != XRel {
		r.Fail("unknown interval variant %d", int(variant))
	}
	l := &Labeling{
		variant: variant,
		slack:   r.Int(),
		maxVal:  r.Int(),
		labels:  make(map[*xmltree.Node]*ivLabel),
	}
	root, err := wire.ReadTree(r, func(n *xmltree.Node) error {
		l.labels[n] = &ivLabel{a: r.Int(), b: r.Int(), level: r.Int()}
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

// checkRestored validates a just-unmarshaled labeling: root at level 0,
// every range [a,b] non-empty and within maxVal, per-edge containment under
// the active variant with the child's range inside its parent's, levels
// increasing by one per edge, and sibling ranges disjoint and in document
// order. Together these make the ranges nest exactly as the tree does, so
// the containment test agrees with the tree on every pair of elements.
func (l *Labeling) checkRestored() error {
	rl := l.labels[l.doc.Root]
	if rl.level != 0 {
		return fmt.Errorf("%w: root level %d", wire.ErrBadFormat, rl.level)
	}
	for _, n := range xmltree.Elements(l.doc.Root) {
		nl := l.labels[n]
		if nl.a > nl.b {
			return fmt.Errorf("%w: empty range (%d,%d)", wire.ErrBadFormat, nl.a, nl.b)
		}
		if nl.b > l.maxVal {
			return fmt.Errorf("%w: label (%d,%d) exceeds stored max %d", wire.ErrBadFormat, nl.a, nl.b, l.maxVal)
		}
		var prev *ivLabel
		for _, c := range n.ElementChildren() {
			cl := l.labels[c]
			if prev != nil && prev.b >= cl.a {
				return fmt.Errorf("%w: sibling ranges (%d,%d) and (%d,%d) overlap or are out of order",
					wire.ErrBadFormat, prev.a, prev.b, cl.a, cl.b)
			}
			prev = cl
		}
		if n.Parent == nil {
			continue
		}
		pl := l.labels[n.Parent]
		if pl.level+1 != nl.level {
			return fmt.Errorf("%w: level %d under parent level %d", wire.ErrBadFormat, nl.level, pl.level)
		}
		if !l.IsAncestor(n.Parent, n) || nl.b > pl.b {
			return fmt.Errorf("%w: label (%d,%d) not contained in parent (%d,%d)",
				wire.ErrBadFormat, nl.a, nl.b, pl.a, pl.b)
		}
	}
	return nil
}

// Variant returns the numbering style this labeling was built with.
func (l *Labeling) Variant() Variant { return l.variant }
