package prime

import (
	"fmt"

	"primelabel/internal/xmltree"
)

// validateFresh checks that n is a childless, parentless element that has
// never been labeled — the unit of insertion.
func (l *Labeling) validateFresh(n *xmltree.Node) error {
	if n == nil {
		return xmltree.ErrNilNode
	}
	if n.Kind != xmltree.ElementNode {
		return ErrNotElement
	}
	if n.Parent != nil {
		return xmltree.ErrHasParent
	}
	if len(n.Children) > 0 {
		return fmt.Errorf("prime: inserted nodes must be childless (insert descendants afterwards)")
	}
	if _, ok := l.labels[n]; ok {
		return ErrHasLabel
	}
	return nil
}

// orderBounds returns the order numbers of the elements surrounding a
// just-inserted node n in document order (0 for a missing neighbor).
// Positions cannot be used directly because deletions — and sparse spacing
// — leave gaps in the order numbering. Both neighbors are found by local
// tree navigation (previous sibling's deepest descendant, first child, or
// an ancestor's following sibling), so the cost is O(depth + fan-in) per
// update, not a walk over the whole document.
func (l *Labeling) orderBounds(n *xmltree.Node) (prev, next int, err error) {
	if p := precedingElement(n, l.doc.Root); p != nil {
		if prev, err = l.OrderOf(p); err != nil {
			return 0, 0, err
		}
	}
	if s := followingElement(n); s != nil {
		if next, err = l.OrderOf(s); err != nil {
			return 0, 0, err
		}
	}
	return prev, next, nil
}

// precedingElement returns n's preorder predecessor element, or nil when
// the predecessor is root (which carries no order number) or absent.
func precedingElement(n, root *xmltree.Node) *xmltree.Node {
	p := n.Parent
	if p == nil {
		return nil
	}
	for i := p.ChildIndex(n) - 1; i >= 0; i-- {
		c := p.Children[i]
		if c.Kind != xmltree.ElementNode {
			continue
		}
		// The predecessor is the deepest last element in this subtree.
		for {
			last := lastElementChild(c)
			if last == nil {
				return c
			}
			c = last
		}
	}
	if p == root {
		return nil
	}
	return p
}

func lastElementChild(n *xmltree.Node) *xmltree.Node {
	for i := len(n.Children) - 1; i >= 0; i-- {
		if n.Children[i].Kind == xmltree.ElementNode {
			return n.Children[i]
		}
	}
	return nil
}

// followingElement returns n's preorder successor element: its first
// element child, or the nearest following element sibling of n or of one
// of its ancestors.
func followingElement(n *xmltree.Node) *xmltree.Node {
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode {
			return c
		}
	}
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		p := cur.Parent
		for _, c := range p.Children[p.ChildIndex(cur)+1:] {
			if c.Kind == xmltree.ElementNode {
				return c
			}
		}
	}
	return nil
}

// insertTracked registers a freshly labeled node in the SC table between
// the given neighbor order numbers and returns the number of SC records
// updated. Re-keyed nodes (including the new one) have their order keys
// swapped in place.
func (l *Labeling) insertTracked(n *xmltree.Node, prev, next int) (int, error) {
	nl := l.labels[n]
	key := nl.selfPrime
	if key == 0 {
		// No prime self-label (power-of-two leaf): draw a dedicated order
		// key; InsertBetween re-keys it further if the order demands.
		if key = l.recycledPrime(); key == 0 {
			key = l.src.Next()
		}
	}
	updated, rekeys, err := l.sct.InsertBetween(key, prev, next)
	if err != nil {
		return 0, fmt.Errorf("prime: SC table insert: %w", err)
	}
	for _, kc := range rekeys {
		if kc.Old == key {
			key = kc.New
			continue
		}
		node, ok := l.byKey[kc.Old]
		if !ok {
			continue
		}
		delete(l.byKey, kc.Old)
		l.byKey[kc.New] = node
		// A retired order key is reusable only if it was a dedicated key;
		// a self-label doubling as order key stays in use as a label.
		if l.labels[node].selfPrime != kc.Old {
			l.freePrime(kc.Old)
		}
		l.labels[node].orderKey = kc.New
	}
	nl.orderKey = key
	l.byKey[key] = n
	return updated, nil
}

// InsertChildAt implements labeling.Labeling. A fresh element n becomes the
// idx-th child of parent. Existing labels never change, with one exception
// the paper calls out in Section 5.3: under Opt2 a parent that was a
// power-of-two leaf must be converted to a prime self-label, so the
// optimized scheme relabels 2 nodes (the new node and its parent) where the
// original scheme relabels only the new node.
func (l *Labeling) InsertChildAt(parent *xmltree.Node, idx int, n *xmltree.Node) (int, error) {
	pl, ok := l.labels[parent]
	if !ok {
		return 0, fmt.Errorf("prime: insert under unlabeled parent %s", xmltree.PathTo(parent))
	}
	if err := l.validateFresh(n); err != nil {
		return 0, err
	}
	relabeled := 0
	// Opt2 conversion: the parent was a leaf labeled 2^k and now becomes an
	// interior node, which must carry an odd (prime) label.
	if pl.exp > 0 {
		pl.exp = 0
		pl.selfPrime = l.nextNonLeafPrime(parent)
		pl.selfCache = nil
		l.derive(pl, l.labels[parent.Parent])
		relabeled++
	}
	if err := parent.InsertChildAt(idx, n); err != nil {
		return relabeled, err
	}
	nl := &nodeLabel{}
	l.assignLeafSelf(n, nl)
	l.derive(nl, pl)
	l.labels[n] = nl
	relabeled++
	if l.sct != nil {
		prev, next, err := l.orderBounds(n)
		if err != nil {
			return relabeled, err
		}
		updated, err := l.insertTracked(n, prev, next)
		if err != nil {
			return relabeled, err
		}
		// Section 5.4 counts one SC record update as one relabeled node.
		relabeled += updated
	}
	return relabeled, nil
}

// WrapNode implements labeling.Labeling: wrapper takes target's place and
// target becomes its only child (the Figure 17 update). The wrapper's prime
// joins the labels of every node in target's subtree, so the whole subtree
// is relabeled — but nothing outside it.
func (l *Labeling) WrapNode(target, wrapper *xmltree.Node) (int, error) {
	tl, ok := l.labels[target]
	if !ok {
		return 0, fmt.Errorf("prime: wrap of unlabeled node")
	}
	if target == l.doc.Root {
		return 0, xmltree.ErrIsRoot
	}
	if err := l.validateFresh(wrapper); err != nil {
		return 0, err
	}
	parent := target.Parent
	var prevOrd, targetOrd int
	if l.sct != nil {
		var err error
		targetOrd, err = l.OrderOf(target)
		if err != nil {
			return 0, err
		}
		// The wrapper slots in immediately before the target, so its
		// predecessor in document order is the target's.
		if p := precedingElement(target, l.doc.Root); p != nil {
			if prevOrd, err = l.OrderOf(p); err != nil {
				return 0, err
			}
		}
	}
	if err := xmltree.WrapChildren(parent, wrapper, target, target); err != nil {
		return 0, err
	}
	wl := &nodeLabel{selfPrime: l.nextNonLeafPrime(wrapper)}
	l.derive(wl, l.labels[parent])
	l.labels[wrapper] = wl
	relabeled := 1
	// Future leaf children of wrapper must not reuse target's exponent.
	if tl.exp > 0 {
		l.power2Count[wrapper] = tl.exp
	}
	// Recompute every label in target's subtree: self-labels are unchanged
	// but each full label now includes the wrapper's prime.
	relabeled += l.relabelSubtree(target)
	if l.sct != nil {
		updated, err := l.insertTracked(wrapper, prevOrd, targetOrd)
		if err != nil {
			return relabeled, err
		}
		relabeled += updated
	}
	return relabeled, nil
}

// relabelSubtree recomputes full labels (and the cached depth/signature
// fast-path state) below a structural change, returning how many nodes
// were touched.
func (l *Labeling) relabelSubtree(n *xmltree.Node) int {
	count := 0
	var walk func(m *xmltree.Node)
	walk = func(m *xmltree.Node) {
		nl := l.labels[m]
		l.derive(nl, l.labels[m.Parent])
		count++
		for _, c := range m.Children {
			if c.Kind == xmltree.ElementNode {
				walk(c)
			}
		}
	}
	walk(n)
	return count
}

// Delete implements labeling.Labeling: the subtree rooted at n is removed.
// No other node's label or order number changes (Sections 4.2 and 5.3).
func (l *Labeling) Delete(n *xmltree.Node) error {
	if _, ok := l.labels[n]; !ok {
		return fmt.Errorf("prime: delete of unlabeled node")
	}
	if n == l.doc.Root {
		return xmltree.ErrIsRoot
	}
	for _, m := range xmltree.Elements(n) {
		nl := l.labels[m]
		if l.sct != nil && nl.orderKey != 0 {
			if err := l.sct.Delete(nl.orderKey); err != nil {
				return err
			}
			delete(l.byKey, nl.orderKey)
			if nl.orderKey != nl.selfPrime {
				l.freePrime(nl.orderKey)
			}
		}
		l.freePrime(nl.selfPrime)
		l.uncount(nl)
		delete(l.labels, m)
		delete(l.power2Count, m)
	}
	n.Detach()
	return nil
}
