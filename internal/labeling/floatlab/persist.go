package floatlab

import (
	"fmt"
	"io"

	"primelabel/internal/labeling/wire"
	"primelabel/internal/xmltree"
)

// Persistence for float-interval-labeled documents.
//
// Midpoint insertion makes float labels history-dependent twice over: the
// exact bit patterns depend on the insertion sequence, and the renumber
// counter records how often mantissa exhaustion forced a full renumbering.
// Marshal stores each node's (start, end, level) triple bit-exactly plus the
// gap and renumber state; Unmarshal verifies strict containment on every
// parent-child edge.

// fltMagic identifies the float persistence format and version.
var fltMagic = []byte("FLTLBL\x01")

// maxMagnitude bounds the gap and every label value a stream may carry, so
// that a midpoint's difference and a renumbering's running sum of gaps stay
// finite: anything larger, or infinite, could only come from tampering.
const maxMagnitude = 0x1p960

// Marshal writes the labeled document — gap and renumber state, tree, and
// every node's label triple — to out in the internal binary format read by
// Unmarshal.
func (l *Labeling) Marshal(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Raw(fltMagic)
	w.F64(l.gap)
	w.Int(l.Renumber)
	wire.WriteTree(w, l.doc.Root, func(n *xmltree.Node) {
		nl := l.labels[n]
		if nl == nil {
			w.Fail("floatlab: unlabeled element %s", xmltree.PathTo(n))
			return
		}
		w.F64(nl.start)
		w.F64(nl.end)
		w.Int(nl.level)
	})
	return w.Flush()
}

// Unmarshal reads a labeled document produced by Marshal and verifies the
// containment and level invariants.
func Unmarshal(in io.Reader) (*Labeling, error) {
	r := wire.NewReader(in)
	r.Expect(fltMagic)
	l := &Labeling{
		gap:    r.F64(),
		labels: make(map[*xmltree.Node]*fLabel),
	}
	l.Renumber = r.Int()
	if r.Err() == nil && !(l.gap > 0 && l.gap <= maxMagnitude) {
		r.Fail("gap %g outside (0, %g]", l.gap, maxMagnitude)
	}
	root, err := wire.ReadTree(r, func(n *xmltree.Node) error {
		l.labels[n] = &fLabel{start: r.F64(), end: r.F64(), level: r.Int()}
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
// start < end everywhere within ±maxMagnitude, strict containment and
// level+1 on every edge, and sibling intervals disjoint and in document
// order.
func (l *Labeling) checkRestored() error {
	if rl := l.labels[l.doc.Root]; rl.level != 0 {
		return fmt.Errorf("%w: root level %d", wire.ErrBadFormat, rl.level)
	}
	for _, n := range xmltree.Elements(l.doc.Root) {
		nl := l.labels[n]
		if !(-maxMagnitude <= nl.start && nl.start < nl.end && nl.end <= maxMagnitude) {
			return fmt.Errorf("%w: interval (%g,%g) is empty or not within ±%g", wire.ErrBadFormat, nl.start, nl.end, maxMagnitude)
		}
		var prev *fLabel
		for _, c := range n.ElementChildren() {
			cl := l.labels[c]
			if prev != nil && !(prev.end < cl.start) {
				return fmt.Errorf("%w: sibling intervals (%g,%g) and (%g,%g) overlap or are out of order",
					wire.ErrBadFormat, prev.start, prev.end, cl.start, cl.end)
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
		if !(pl.start < nl.start && nl.end < pl.end) {
			return fmt.Errorf("%w: interval (%g,%g) not contained in parent (%g,%g)",
				wire.ErrBadFormat, nl.start, nl.end, pl.start, pl.end)
		}
	}
	return nil
}

// Gap returns the initial counter spacing this labeling was built with.
func (l *Labeling) Gap() float64 { return l.gap }
