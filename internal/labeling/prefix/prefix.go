package prefix

import (
	"errors"
	"fmt"

	"primelabel/internal/labeling"
	"primelabel/internal/xmltree"
)

// Variant selects the sibling-code generator.
type Variant int

const (
	// Prefix1 codes the i-th child as "1^(i-1)0": simple but linear in the
	// fan-out (Equation 1: Lmax = D·F).
	Prefix1 Variant = iota
	// Prefix2 uses the Cohen/Kaplan/Milo incremental binary codes
	// 0, 10, 1100, 1101, 1110, 11110000, … whose length is 4·log F
	// (Equation 2: Lmax = D·4·log F).
	Prefix2
)

// String returns the variant's scheme name, "prefix-1" or "prefix-2".
func (v Variant) String() string {
	switch v {
	case Prefix1:
		return "prefix-1"
	case Prefix2:
		return "prefix-2"
	default:
		return fmt.Sprintf("prefix(%d)", int(v))
	}
}

// Scheme labels documents with prefix labels.
type Scheme struct {
	Variant Variant
	// OrderPreserving keeps sibling codes in document order so the labels
	// answer order queries (required for the Section 5.4 experiment). An
	// ordered insertion between siblings then renumbers all following
	// siblings and their subtrees. When false, inserted nodes simply take
	// the next unused sibling code (count 1) and Before is unsupported.
	OrderPreserving bool
}

// Name implements labeling.Scheme.
func (s Scheme) Name() string {
	n := s.Variant.String()
	if s.OrderPreserving {
		n += "+ordered"
	}
	return n
}

// nextSibCode returns the sibling code following prev (the zero Bits for
// the first child).
func (s Scheme) nextSibCode(prev Bits) Bits {
	switch s.Variant {
	case Prefix1:
		// prev = 1^(i-1)0 → next = 1^i 0: flip the trailing 0 to 1, append 0.
		if prev.Len() == 0 {
			return BitsFromString("0")
		}
		out := Bits{}
		for i := 0; i < prev.Len()-1; i++ {
			out = out.AppendBit(1)
		}
		out = out.AppendBit(1)
		return out.AppendBit(0)
	default: // Prefix2
		if prev.Len() == 0 {
			return BitsFromString("0")
		}
		next := prev.incrementOrExtend()
		return next
	}
}

// issuable reports whether nextSibCode issues code c in some sequence: for
// Prefix1 n-1 ones then a zero, for Prefix2 a length n = 2^j whose first
// n/2 bits are ones and whose other bits are not all ones.
func (s Scheme) issuable(c Bits) bool {
	n, ones := c.Len(), c.Len()-1
	if s.Variant == Prefix2 {
		if n&(n-1) != 0 {
			return false
		}
		ones = n / 2
	}
	for i := 0; i < n; i++ {
		if c.Bit(i) == 0 {
			return i >= ones
		}
	}
	return false
}

type pfxLabel struct {
	label Bits // full label: parent label + sibling code
	code  Bits // this node's own sibling code
}

// Labeling is a prefix-labeled document.
type Labeling struct {
	doc    *xmltree.Document
	scheme Scheme
	labels map[*xmltree.Node]*pfxLabel
	// lastCode tracks the last issued sibling code per parent so appends
	// and unordered inserts can continue the sequence.
	lastCode map[*xmltree.Node]Bits
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
		return nil, errors.New("prefix: nil document")
	}
	l := &Labeling{
		doc:      doc,
		scheme:   s,
		labels:   make(map[*xmltree.Node]*pfxLabel),
		lastCode: make(map[*xmltree.Node]Bits),
	}
	l.labels[doc.Root] = &pfxLabel{}
	l.labelChildren(doc.Root)
	return l, nil
}

// labelChildren assigns sibling codes to all element children of n (whose
// own label must already be set) and recurses.
func (l *Labeling) labelChildren(n *xmltree.Node) {
	parentLabel := l.labels[n].label
	prev := Bits{}
	for _, c := range n.Children {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		code := l.scheme.nextSibCode(prev)
		l.labels[c] = &pfxLabel{label: parentLabel.Append(code), code: code}
		prev = code
		l.labelChildren(c)
	}
	l.lastCode[n] = prev
}

// SchemeName implements labeling.Labeling.
func (l *Labeling) SchemeName() string { return l.scheme.Name() }

// Doc implements labeling.Labeling.
func (l *Labeling) Doc() *xmltree.Document { return l.doc }

// BitsOf returns n's full label, for diagnostics and the rdb engine.
func (l *Labeling) BitsOf(n *xmltree.Node) (Bits, bool) {
	nl, ok := l.labels[n]
	if !ok {
		return Bits{}, false
	}
	return nl.label, true
}

// IsAncestor implements the prefix containment test.
func (l *Labeling) IsAncestor(a, b *xmltree.Node) bool {
	la, ok := l.labels[a]
	if !ok {
		return false
	}
	lb, ok := l.labels[b]
	if !ok {
		return false
	}
	return lb.label.Len() > la.label.Len() && lb.label.HasPrefix(la.label)
}

// IsParent tests that a's label plus b's own sibling code equals b's label.
func (l *Labeling) IsParent(a, b *xmltree.Node) bool {
	la, ok := l.labels[a]
	if !ok {
		return false
	}
	lb, ok := l.labels[b]
	if !ok {
		return false
	}
	return lb.code.Len() > 0 &&
		lb.label.Len() == la.label.Len()+lb.code.Len() &&
		lb.label.HasPrefix(la.label)
}

// LabelBits implements labeling.Labeling.
func (l *Labeling) LabelBits(n *xmltree.Node) int {
	nl, ok := l.labels[n]
	if !ok {
		return 0
	}
	return nl.label.Len()
}

// MaxLabelBits implements labeling.Labeling.
func (l *Labeling) MaxLabelBits() int {
	max := 0
	for _, nl := range l.labels {
		if nl.label.Len() > max {
			max = nl.label.Len()
		}
	}
	return max
}

// Before implements labeling.Labeling: both prefix code generators issue
// sibling codes in increasing binary order, so lexicographic comparison of
// labels is document order — but only while OrderPreserving inserts keep it
// that way.
func (l *Labeling) Before(a, b *xmltree.Node) (bool, error) {
	if !l.scheme.OrderPreserving {
		return false, labeling.ErrOrderUnsupported
	}
	la, ok := l.labels[a]
	if !ok {
		return false, labeling.ErrNotLabeled
	}
	lb, ok := l.labels[b]
	if !ok {
		return false, labeling.ErrNotLabeled
	}
	return la.label.Compare(lb.label) < 0, nil
}

// InsertChildAt implements labeling.Labeling. Appends — and any insert in
// the unordered configuration — cost exactly one label: the new node takes
// the next sibling code. An order-preserving insert between siblings
// renumbers every following sibling and its subtree.
func (l *Labeling) InsertChildAt(parent *xmltree.Node, idx int, n *xmltree.Node) (int, error) {
	if _, ok := l.labels[parent]; !ok {
		return 0, fmt.Errorf("prefix: insert under unlabeled parent")
	}
	if err := l.validateFresh(n); err != nil {
		return 0, err
	}
	if err := parent.InsertChildAt(idx, n); err != nil {
		return 0, err
	}
	kids := parent.ElementChildren()
	appended := kids[len(kids)-1] == n
	if appended || !l.scheme.OrderPreserving {
		code := l.scheme.nextSibCode(l.lastCode[parent])
		l.lastCode[parent] = code
		l.labels[n] = &pfxLabel{label: l.labels[parent].label.Append(code), code: code}
		return 1, nil
	}
	// Order-preserving mid-list insert: renumber from the insertion point.
	return l.renumberChildren(parent, n), nil
}

// renumberChildren reassigns sibling codes to all children of parent,
// relabeling the subtrees of every child whose code changed. It returns the
// number of labels written, counting newNode as one.
func (l *Labeling) renumberChildren(parent, newNode *xmltree.Node) int {
	count := 0
	prev := Bits{}
	parentLabel := l.labels[parent].label
	for _, c := range parent.ElementChildren() {
		code := l.scheme.nextSibCode(prev)
		prev = code
		old, had := l.labels[c]
		if had && old.code.Equal(code) {
			continue // label unchanged; subtree untouched
		}
		l.labels[c] = &pfxLabel{label: parentLabel.Append(code), code: code}
		count++
		count += l.relabelSubtree(c)
	}
	l.lastCode[parent] = prev
	return count
}

// relabelSubtree recomputes labels below c (codes unchanged), returning the
// number of nodes touched.
func (l *Labeling) relabelSubtree(c *xmltree.Node) int {
	count := 0
	base := l.labels[c].label
	for _, ch := range c.ElementChildren() {
		nl := l.labels[ch]
		nl.label = base.Append(nl.code)
		count++
		count += l.relabelSubtree(ch)
	}
	return count
}

// WrapNode implements labeling.Labeling: the wrapper takes target's code
// and the target subtree is relabeled below it.
func (l *Labeling) WrapNode(target, wrapper *xmltree.Node) (int, error) {
	tl, ok := l.labels[target]
	if !ok {
		return 0, fmt.Errorf("prefix: wrap of unlabeled node")
	}
	if target == l.doc.Root {
		return 0, xmltree.ErrIsRoot
	}
	if err := l.validateFresh(wrapper); err != nil {
		return 0, err
	}
	parent := target.Parent
	if err := xmltree.WrapChildren(parent, wrapper, target, target); err != nil {
		return 0, err
	}
	// Wrapper inherits target's old code and position; target becomes the
	// wrapper's first child.
	l.labels[wrapper] = &pfxLabel{label: tl.label, code: tl.code}
	firstCode := l.scheme.nextSibCode(Bits{})
	l.labels[target] = &pfxLabel{label: tl.label.Append(firstCode), code: firstCode}
	l.lastCode[wrapper] = firstCode
	count := 2 + l.relabelSubtree(target)
	return count, nil
}

// Delete implements labeling.Labeling: no other labels change.
func (l *Labeling) Delete(n *xmltree.Node) error {
	if _, ok := l.labels[n]; !ok {
		return fmt.Errorf("prefix: delete of unlabeled node")
	}
	if n == l.doc.Root {
		return xmltree.ErrIsRoot
	}
	for _, m := range xmltree.Elements(n) {
		delete(l.labels, m)
		delete(l.lastCode, m)
	}
	n.Detach()
	return nil
}

func (l *Labeling) validateFresh(n *xmltree.Node) error {
	if n == nil {
		return xmltree.ErrNilNode
	}
	if n.Kind != xmltree.ElementNode {
		return errors.New("prefix: only element nodes are labeled")
	}
	if n.Parent != nil {
		return xmltree.ErrHasParent
	}
	if len(n.Children) > 0 {
		return errors.New("prefix: inserted nodes must be childless")
	}
	if _, ok := l.labels[n]; ok {
		return errors.New("prefix: node is already labeled")
	}
	return nil
}
