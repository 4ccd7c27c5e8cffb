// Package labeling defines the common contract all XML labeling schemes in
// this repository implement — the paper's prime number scheme and the
// interval, prefix and float baselines it is evaluated against.
//
// A Scheme labels a document once; the resulting Labeling answers
// relationship queries (ancestor, parent, document order) purely from the
// labels, and applies dynamic updates while reporting how many existing
// nodes had to be relabeled — the paper's central cost metric
// (Figures 16–18).
package labeling

import (
	"errors"

	"primelabel/internal/xmltree"
)

// Errors shared by scheme implementations.
var (
	// ErrNotLabeled is returned when an operation references a node that
	// carries no label (e.g. it was never part of the labeled document).
	ErrNotLabeled = errors.New("labeling: node has no label")
	// ErrOrderUnsupported is returned by Before when a labeling was built
	// without order maintenance.
	ErrOrderUnsupported = errors.New("labeling: scheme not built with order support")
)

// Labeling is a labeled document: the tree plus one label per element node.
type Labeling interface {
	// SchemeName identifies the scheme that produced this labeling.
	SchemeName() string

	// Doc returns the underlying document. Mutations must go through the
	// labeling (InsertChildAt, WrapNode, Delete) so labels stay consistent.
	Doc() *xmltree.Document

	// IsAncestor reports whether a is a proper ancestor of b, decided from
	// the two labels alone.
	IsAncestor(a, b *xmltree.Node) bool

	// IsParent reports whether a is the parent of b, decided from labels.
	IsParent(a, b *xmltree.Node) bool

	// LabelBits returns the size in bits of n's label as stored.
	LabelBits(n *xmltree.Node) int

	// MaxLabelBits returns the maximum label size over all labeled nodes —
	// the fixed-length storage requirement the paper reports in
	// Figures 13 and 14.
	MaxLabelBits() int

	// Before reports whether a precedes b in document order using only
	// labels (and, for the prime scheme, the SC table).
	Before(a, b *xmltree.Node) (bool, error)

	// InsertChildAt inserts the new element n as the idx-th child of
	// parent, updating the tree and all labels. It returns the number of
	// nodes whose labels were written — newly assigned or changed —
	// including n itself. For order-maintaining schemes the count also
	// includes order bookkeeping updates, matching Section 5.4's
	// accounting where one SC record update counts as one relabeled node.
	InsertChildAt(parent *xmltree.Node, idx int, n *xmltree.Node) (int, error)

	// WrapNode inserts wrapper as a new parent of target: wrapper takes
	// target's place among its siblings and target becomes wrapper's only
	// child (the Figure 17 update). Returns the relabel count as above.
	WrapNode(target, wrapper *xmltree.Node) (int, error)

	// Delete removes the subtree rooted at n. Deletion never relabels
	// other nodes in any scheme (Section 5.3).
	Delete(n *xmltree.Node) error
}

// Orderer is an optional interface for labelings that can produce a
// numeric document-order rank per node (the prime scheme's SC lookup, the
// interval scheme's start value). rdb.Build reads it once per element to
// check that row order is document order, after which every order question
// is an integer comparison — the strategy Section 4.3 describes ("generate
// the order numbers ... the nodes are sorted according to their order
// numbers").
type Orderer interface {
	// OrderOf returns a rank that increases in document order. Ranks need
	// not be dense; only relative order matters.
	OrderOf(n *xmltree.Node) (int, error)
}

// Scheme constructs labelings.
type Scheme interface {
	// Name returns the scheme identifier, e.g. "prime", "interval",
	// "prefix-2".
	Name() string
	// Label assigns labels to every element of doc.
	Label(doc *xmltree.Document) (Labeling, error)
}

// TotalLabelBits sums LabelBits over all elements — a storage metric used
// by the ablation benchmarks.
func TotalLabelBits(l Labeling) int {
	total := 0
	xmltree.WalkElements(l.Doc().Root, func(n *xmltree.Node) bool {
		total += l.LabelBits(n)
		return true
	})
	return total
}

// CheckAgainstTree verifies a labeling against parent-pointer ground truth
// over every pair of elements. It is O(n²) and intended for tests; it
// returns the first disagreement found.
func CheckAgainstTree(l Labeling) error {
	els := xmltree.Elements(l.Doc().Root)
	for _, a := range els {
		for _, b := range els {
			truth := a.IsAncestorOf(b)
			if got := l.IsAncestor(a, b); got != truth {
				return &MismatchError{Scheme: l.SchemeName(), A: a, B: b, Got: got, Want: truth}
			}
		}
	}
	return nil
}

// MismatchError reports a labeling that disagrees with the tree.
type MismatchError struct {
	Scheme    string
	A, B      *xmltree.Node
	Got, Want bool
}

// Error names the scheme and the node pair whose ancestry the labels
// decide differently from the tree.
func (e *MismatchError) Error() string {
	return "labeling: " + e.Scheme + ": IsAncestor(" + xmltree.PathTo(e.A) + ", " +
		xmltree.PathTo(e.B) + ") disagrees with tree"
}
