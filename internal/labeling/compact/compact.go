// Package compact implements a fixed-width interval ancestry scheme in the
// style of the optimal ancestry labelings of Fraigniaud–Korman and the
// simple ~lg n + O(√lg n)-bit interval scheme of Dahlgaard, Knudsen and
// Rotbart: every element carries a (start, end) pair from one depth-first
// counter plus its depth, packed into at most two machine words.
//
// Ancestor, parent and document-order tests are two or three integer
// comparisons — no multiplication, no division, and in particular no
// math/big arithmetic — and the probe path performs no heap allocation,
// so probe latency is independent of the document's size, where the prime
// scheme's labels grow with depth and fan-out.
//
// The trade-off is the classic static one the paper quantifies in
// Figures 16–18: an insertion renumbers every node at or after the
// insertion point, so compact is only the right primary scheme for
// documents that rarely change. Deletion is free (gaps keep the
// containment invariant valid), which also makes restored labels
// history-dependent — persistence stores them verbatim (see persist.go).
package compact

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"primelabel/internal/labeling"
	"primelabel/internal/xmltree"
)

// SchemeName is the scheme identifier compact labelings report.
const SchemeName = "compact"

// MaxLabelWords is the fixed storage bound: a label always fits in two
// 64-bit words (and in practice in far less — see Labeling.MaxLabelBits).
const MaxLabelWords = 2

// ErrTooLarge reports a document whose DFS counter range would overflow the
// fixed 32-bit label fields (more than ~2^31 elements).
var ErrTooLarge = errors.New("compact: document exceeds the fixed 32-bit counter range")

// Label is one element's compact label: the (Start, End) range of a single
// depth-first counter that increments on every element entry and exit, plus
// the element's depth. x is a proper ancestor of y iff
// Start(x) < Start(y) && End(y) < End(x); Start increases in document
// order. Three uint32 fields fit comfortably inside the two-word
// MaxLabelWords bound.
type Label struct {
	// Start is the counter value on entering the element.
	Start uint32
	// End is the counter value on leaving the element (after its subtree).
	End uint32
	// Level is the element's depth (root = 0), used for parent tests.
	Level uint32
}

// Contains reports whether l's range properly contains m's — the
// constant-time ancestor test on raw labels.
func (l Label) Contains(m Label) bool {
	return l.Start < m.Start && m.End < l.End
}

// Scheme labels documents with compact fixed-width interval labels.
type Scheme struct{}

// Name implements labeling.Scheme.
func (Scheme) Name() string { return SchemeName }

// Labeling is a compact-labeled document. Labels are stored by value in a
// node-keyed map, so relationship probes are a map lookup plus integer
// comparisons and never allocate.
type Labeling struct {
	doc    *xmltree.Document
	labels map[*xmltree.Node]Label
	// maxVal is the largest counter value issued; maxLevel the deepest
	// level. Together they determine the used-bits accounting.
	maxVal   uint32
	maxLevel uint32
}

var _ labeling.Labeling = (*Labeling)(nil)
var _ labeling.Orderer = (*Labeling)(nil)

// Label implements labeling.Scheme.
func (s Scheme) Label(doc *xmltree.Document) (labeling.Labeling, error) {
	return s.New(doc)
}

// New labels doc and returns the concrete labeling.
func (s Scheme) New(doc *xmltree.Document) (*Labeling, error) {
	if doc == nil || doc.Root == nil {
		return nil, errors.New("compact: nil document")
	}
	l := &Labeling{doc: doc}
	if _, err := l.renumberChecked(); err != nil {
		return nil, err
	}
	return l, nil
}

// renumberChecked renumbers the whole document after verifying the counter
// range fits the fixed 32-bit fields, returning how many previously labeled
// nodes changed.
func (l *Labeling) renumberChecked() (int, error) {
	n := len(xmltree.Elements(l.doc.Root))
	if uint64(2*n) >= math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d elements", ErrTooLarge, n)
	}
	return l.renumber(), nil
}

// renumber assigns fresh labels to every element from a single DFS counter
// and returns how many previously labeled nodes changed (newly labeled
// nodes are not counted, matching the interval baseline's accounting).
func (l *Labeling) renumber() int {
	fresh := make(map[*xmltree.Node]Label, len(l.labels))
	changed := 0
	counter := uint32(0)
	maxLevel := uint32(0)
	var walk func(n *xmltree.Node, level uint32)
	walk = func(n *xmltree.Node, level uint32) {
		counter++
		start := counter
		if level > maxLevel {
			maxLevel = level
		}
		for _, c := range n.Children {
			if c.Kind == xmltree.ElementNode {
				walk(c, level+1)
			}
		}
		counter++
		nl := Label{Start: start, End: counter, Level: level}
		fresh[n] = nl
		if old, ok := l.labels[n]; ok && old != nl {
			changed++
		}
	}
	walk(l.doc.Root, 0)
	l.labels = fresh
	if counter > l.maxVal {
		l.maxVal = counter
	}
	l.maxLevel = maxLevel
	return changed
}

// SchemeName implements labeling.Labeling.
func (l *Labeling) SchemeName() string { return SchemeName }

// Doc implements labeling.Labeling.
func (l *Labeling) Doc() *xmltree.Document { return l.doc }

// LabelOf returns n's raw label, for diagnostics, the rdb engine and the
// benchmark suite. ok is false for nodes outside the labeling.
func (l *Labeling) LabelOf(n *xmltree.Node) (Label, bool) {
	nl, ok := l.labels[n]
	return nl, ok
}

// IsAncestor implements labeling.Labeling: two map lookups and two integer
// comparisons, allocation-free.
func (l *Labeling) IsAncestor(a, b *xmltree.Node) bool {
	la, ok := l.labels[a]
	if !ok {
		return false
	}
	lb, ok := l.labels[b]
	if !ok {
		return false
	}
	return la.Contains(lb)
}

// IsParent implements labeling.Labeling: containment plus a depth check.
func (l *Labeling) IsParent(a, b *xmltree.Node) bool {
	la, ok := l.labels[a]
	if !ok {
		return false
	}
	lb, ok := l.labels[b]
	if !ok {
		return false
	}
	return la.Contains(lb) && la.Level+1 == lb.Level
}

// LabelBits reports the used-bits accounting for the fixed-width encoding:
// two counter fields wide enough for the largest value issued plus a level
// field wide enough for the deepest node. Always at most 96 and therefore
// within the two-word bound.
func (l *Labeling) LabelBits(n *xmltree.Node) int {
	if _, ok := l.labels[n]; !ok {
		return 0
	}
	return l.MaxLabelBits()
}

// MaxLabelBits implements labeling.Labeling: 2·⌈lg maxCounter⌉ bits of
// range plus ⌈lg maxLevel⌉ bits of depth.
func (l *Labeling) MaxLabelBits() int {
	return 2*bits.Len32(l.maxVal) + bits.Len32(l.maxLevel)
}

// OrderOf implements labeling.Orderer: the start counter increases in
// document order.
func (l *Labeling) OrderOf(n *xmltree.Node) (int, error) {
	nl, ok := l.labels[n]
	if !ok {
		return 0, labeling.ErrNotLabeled
	}
	return int(nl.Start), nil
}

// Before implements labeling.Labeling: document order is carried directly
// by the start counter.
func (l *Labeling) Before(a, b *xmltree.Node) (bool, error) {
	la, ok := l.labels[a]
	if !ok {
		return false, labeling.ErrNotLabeled
	}
	lb, ok := l.labels[b]
	if !ok {
		return false, labeling.ErrNotLabeled
	}
	return la.Start < lb.Start, nil
}

// InsertChildAt implements labeling.Labeling. Compact is a static scheme:
// the insertion renumbers the document and every node whose label changed
// is counted — the defining cost the paper's Figures 16–18 quantify.
func (l *Labeling) InsertChildAt(parent *xmltree.Node, idx int, n *xmltree.Node) (int, error) {
	if _, ok := l.labels[parent]; !ok {
		return 0, errors.New("compact: insert under unlabeled parent")
	}
	if err := l.validateFresh(n); err != nil {
		return 0, err
	}
	if err := parent.InsertChildAt(idx, n); err != nil {
		return 0, err
	}
	changed, err := l.renumberChecked()
	if err != nil {
		return 0, err
	}
	// The changed existing nodes plus the newly labeled node itself.
	return changed + 1, nil
}

// WrapNode implements labeling.Labeling, with the same renumbering cost as
// InsertChildAt.
func (l *Labeling) WrapNode(target, wrapper *xmltree.Node) (int, error) {
	if _, ok := l.labels[target]; !ok {
		return 0, errors.New("compact: wrap of unlabeled node")
	}
	if target == l.doc.Root {
		return 0, xmltree.ErrIsRoot
	}
	if err := l.validateFresh(wrapper); err != nil {
		return 0, err
	}
	if err := xmltree.WrapChildren(target.Parent, wrapper, target, target); err != nil {
		return 0, err
	}
	changed, err := l.renumberChecked()
	if err != nil {
		return 0, err
	}
	return changed + 1, nil
}

// Delete implements labeling.Labeling: the subtree's labels are dropped and
// every remaining label stays valid — containment tolerates gaps.
func (l *Labeling) Delete(n *xmltree.Node) error {
	if _, ok := l.labels[n]; !ok {
		return errors.New("compact: delete of unlabeled node")
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
func (l *Labeling) validateFresh(n *xmltree.Node) error {
	if n == nil {
		return xmltree.ErrNilNode
	}
	if n.Kind != xmltree.ElementNode {
		return errors.New("compact: only element nodes are labeled")
	}
	if n.Parent != nil {
		return xmltree.ErrHasParent
	}
	if len(n.Children) > 0 {
		return errors.New("compact: inserted nodes must be childless")
	}
	if _, ok := l.labels[n]; ok {
		return errors.New("compact: node is already labeled")
	}
	return nil
}
