// Package interval implements the static interval-based labeling schemes
// the paper uses as its primary baseline: the XISS (order, size) numbering
// of Li & Moon [11] and the XRel (start, end) region numbering of
// Yoshikawa & Amagasa [16].
//
// Interval labels are the most compact (2·(1+log N) bits, Section 3.1) and
// answer ancestor and order queries with plain integer comparisons, but
// they are static: an insertion renumbers every node that follows the
// insertion point in document order — the cost quantified in Figures 16–18.
package interval

import (
	"errors"
	"fmt"
	"math/bits"

	"primelabel/internal/labeling"
	"primelabel/internal/xmltree"
)

// Variant selects the numbering style.
type Variant int

const (
	// XISS labels each node with (order, size): x is an ancestor of y iff
	// order(x) < order(y) <= order(x) + size(x).
	XISS Variant = iota
	// XRel labels each node with (start, end) from a single depth-first
	// counter: x is an ancestor of y iff start(x) < start(y) and
	// end(y) < end(x).
	XRel
)

func (v Variant) String() string {
	switch v {
	case XISS:
		return "interval-xiss"
	case XRel:
		return "interval-xrel"
	default:
		return fmt.Sprintf("interval(%d)", int(v))
	}
}

// Scheme labels documents with interval labels.
type Scheme struct {
	Variant Variant
	// Slack, when > 1, multiplies XISS size values to reserve room for
	// future insertions (the mitigation Section 2 discusses and dismisses
	// as unpredictable). An insertion that fits in reserved slack relabels
	// only the new node; once slack is exhausted the subtree is renumbered.
	// Ignored for XRel. 0 or 1 means no slack.
	Slack int
}

// Name implements labeling.Scheme.
func (s Scheme) Name() string {
	n := s.Variant.String()
	if s.Variant == XISS && s.Slack > 1 {
		n += fmt.Sprintf("+slack%d", s.Slack)
	}
	return n
}

type ivLabel struct {
	a, b  int // (order, order+size] for XISS; (start, end) for XRel
	level int // depth, stored alongside as in [11] for parent tests
}

// Labeling is an interval-labeled document.
type Labeling struct {
	doc     *xmltree.Document
	variant Variant
	slack   int
	labels  map[*xmltree.Node]*ivLabel
	maxVal  int // largest counter value issued, for label-size accounting
}

var _ labeling.Labeling = (*Labeling)(nil)

// Label implements labeling.Scheme.
func (s Scheme) Label(doc *xmltree.Document) (labeling.Labeling, error) {
	l, err := s.New(doc)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// New labels doc and returns the concrete labeling.
func (s Scheme) New(doc *xmltree.Document) (*Labeling, error) {
	if doc == nil || doc.Root == nil {
		return nil, errors.New("interval: nil document")
	}
	l := &Labeling{
		doc:     doc,
		variant: s.Variant,
		slack:   s.Slack,
		labels:  make(map[*xmltree.Node]*ivLabel),
	}
	l.renumber()
	return l, nil
}

// maxSlackRange bounds the range XISS reserves for one subtree. Slack
// multiplies at every level, so a deep document or a large slack would
// overflow int; a subtree whose range would pass this bound gets no spare
// room, so no range exceeds maxSlackRange times its subtree's size and the
// ranges of any document under 2^22 elements stay inside int.
const maxSlackRange = 1 << 40

// renumber assigns fresh labels to the whole document and returns how many
// existing nodes changed (newly labeled nodes are not counted here).
func (l *Labeling) renumber() int {
	changed := 0
	switch l.variant {
	case XRel:
		counter := 0
		var walk func(n *xmltree.Node, level int)
		walk = func(n *xmltree.Node, level int) {
			counter++
			start := counter
			for _, c := range n.Children {
				if c.Kind == xmltree.ElementNode {
					walk(c, level+1)
				}
			}
			counter++
			changed += l.set(n, start, counter, level)
		}
		walk(l.doc.Root, 0)
		if counter > l.maxVal {
			l.maxVal = counter
		}
	case XISS:
		// Extended preorder with optional slack multiplier.
		var walk func(n *xmltree.Node, next, level int) (order, size int)
		walk = func(n *xmltree.Node, next, level int) (int, int) {
			order := next
			next++
			size := 0
			for _, c := range n.Children {
				if c.Kind == xmltree.ElementNode {
					_, csize := walk(c, next, level+1)
					next += csize
					size += csize
				}
			}
			// Reserve slack: the advertised size covers the real subtree
			// plus spare room, up to maxSlackRange.
			adv := size + 1
			if l.slack > 1 && adv <= maxSlackRange/l.slack {
				adv *= l.slack
			}
			changed += l.set(n, order, order+adv-1, level)
			return order, adv
		}
		_, total := walk(l.doc.Root, 1, 0)
		if total > l.maxVal {
			l.maxVal = total
		}
	}
	return changed
}

// set updates n's label and reports whether an existing label changed.
func (l *Labeling) set(n *xmltree.Node, a, b, level int) int {
	old, ok := l.labels[n]
	if ok && old.a == a && old.b == b && old.level == level {
		return 0
	}
	l.labels[n] = &ivLabel{a: a, b: b, level: level}
	if !ok {
		return 0 // newly labeled, not a relabel of an existing node
	}
	return 1
}

// SchemeName implements labeling.Labeling.
func (l *Labeling) SchemeName() string {
	return Scheme{Variant: l.variant, Slack: l.slack}.Name()
}

// Doc implements labeling.Labeling.
func (l *Labeling) Doc() *xmltree.Document { return l.doc }

// Interval returns n's label pair, for diagnostics and the rdb engine.
func (l *Labeling) Interval(n *xmltree.Node) (a, b int, ok bool) {
	nl, ok := l.labels[n]
	if !ok {
		return 0, 0, false
	}
	return nl.a, nl.b, true
}

// Level returns n's stored level (depth).
func (l *Labeling) Level(n *xmltree.Node) (int, bool) {
	nl, ok := l.labels[n]
	if !ok {
		return 0, false
	}
	return nl.level, true
}

// IsAncestor implements the containment test of the active variant.
func (l *Labeling) IsAncestor(a, b *xmltree.Node) bool {
	la, ok := l.labels[a]
	if !ok {
		return false
	}
	lb, ok := l.labels[b]
	if !ok {
		return false
	}
	switch l.variant {
	case XRel:
		return la.a < lb.a && lb.b < la.b
	default: // XISS
		return la.a < lb.a && lb.a <= la.b
	}
}

// IsParent combines containment with the stored level, as XISS does.
func (l *Labeling) IsParent(a, b *xmltree.Node) bool {
	if !l.IsAncestor(a, b) {
		return false
	}
	return l.labels[a].level+1 == l.labels[b].level
}

// LabelBits reports the fixed-length encoding the paper assumes: two
// counter fields wide enough for the largest value issued.
func (l *Labeling) LabelBits(n *xmltree.Node) int {
	if _, ok := l.labels[n]; !ok {
		return 0
	}
	return 2 * bits.Len(uint(l.maxVal))
}

// MaxLabelBits implements labeling.Labeling: 2·(1+log N) with the actual
// counter maximum.
func (l *Labeling) MaxLabelBits() int {
	return 2 * bits.Len(uint(l.maxVal))
}

// OrderOf implements labeling.Orderer: the first label field (order/start)
// increases in document order.
func (l *Labeling) OrderOf(n *xmltree.Node) (int, error) {
	nl, ok := l.labels[n]
	if !ok {
		return 0, labeling.ErrNotLabeled
	}
	return nl.a, nil
}

// Before implements labeling.Labeling: interval labels carry document order
// directly in the first field.
func (l *Labeling) Before(a, b *xmltree.Node) (bool, error) {
	la, ok := l.labels[a]
	if !ok {
		return false, labeling.ErrNotLabeled
	}
	lb, ok := l.labels[b]
	if !ok {
		return false, labeling.ErrNotLabeled
	}
	return la.a < lb.a, nil
}

// InsertChildAt implements labeling.Labeling. For XISS with slack, the
// insertion tries to fit into the parent's reserved range and relabels
// nothing when it can; otherwise (and always for XRel) the document is
// renumbered and every node whose label changed is counted — the static
// scheme's defining cost.
func (l *Labeling) InsertChildAt(parent *xmltree.Node, idx int, n *xmltree.Node) (int, error) {
	if _, ok := l.labels[parent]; !ok {
		return 0, fmt.Errorf("interval: insert under unlabeled parent")
	}
	if err := validateFresh(l.labels, n); err != nil {
		return 0, err
	}
	if err := parent.InsertChildAt(idx, n); err != nil {
		return 0, err
	}
	if l.variant == XISS && l.slack > 1 {
		if ok := l.tryInsertIntoSlack(parent, n); ok {
			return 1, nil
		}
	}
	return l.renumber() + 1, nil
}

// tryInsertIntoSlack attempts to place n (just added under parent) inside
// parent's reserved interval after the last labeled sibling, without
// violating any invariant. It only succeeds when n was appended after all
// labeled siblings (order between siblings cannot be fixed up for free).
func (l *Labeling) tryInsertIntoSlack(parent, n *xmltree.Node) bool {
	pl := l.labels[parent]
	kids := parent.ElementChildren()
	if kids[len(kids)-1] != n {
		return false
	}
	// Find the highest end among labeled children.
	high := pl.a
	for _, c := range kids {
		if c == n {
			continue
		}
		cl, ok := l.labels[c]
		if !ok {
			return false
		}
		if cl.b > high {
			high = cl.b
		}
	}
	if high >= pl.b {
		return false // slack exhausted
	}
	l.labels[n] = &ivLabel{a: high + 1, b: high + 1, level: pl.level + 1}
	if high+1 > l.maxVal {
		l.maxVal = high + 1
	}
	return true
}

// WrapNode implements labeling.Labeling.
func (l *Labeling) WrapNode(target, wrapper *xmltree.Node) (int, error) {
	if _, ok := l.labels[target]; !ok {
		return 0, fmt.Errorf("interval: wrap of unlabeled node")
	}
	if target == l.doc.Root {
		return 0, xmltree.ErrIsRoot
	}
	if err := validateFresh(l.labels, wrapper); err != nil {
		return 0, err
	}
	if err := xmltree.WrapChildren(target.Parent, wrapper, target, target); err != nil {
		return 0, err
	}
	return l.renumber() + 1, nil
}

// Delete implements labeling.Labeling: deletion leaves all remaining labels
// untouched (containment stays valid with gaps).
func (l *Labeling) Delete(n *xmltree.Node) error {
	if _, ok := l.labels[n]; !ok {
		return fmt.Errorf("interval: delete of unlabeled node")
	}
	if n == l.doc.Root {
		return xmltree.ErrIsRoot
	}
	for _, m := range xmltree.Elements(n) {
		delete(l.labels, m)
	}
	n.Detach()
	return nil
}

// validateFresh rejects nodes that cannot be inserted.
func validateFresh(labels map[*xmltree.Node]*ivLabel, n *xmltree.Node) error {
	if n == nil {
		return xmltree.ErrNilNode
	}
	if n.Kind != xmltree.ElementNode {
		return errors.New("interval: only element nodes are labeled")
	}
	if n.Parent != nil {
		return xmltree.ErrHasParent
	}
	if len(n.Children) > 0 {
		return errors.New("interval: inserted nodes must be childless")
	}
	if _, ok := labels[n]; ok {
		return errors.New("interval: node is already labeled")
	}
	return nil
}
