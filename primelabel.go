// Package primelabel is a library for labeling dynamic ordered XML trees
// with the prime number labeling scheme of Wu, Lee & Hsu (ICDE 2004), plus
// the interval, prefix, Dewey and float baselines the paper evaluates
// against.
//
// A labeled Document answers ancestor, parent and document-order tests
// from node labels, and absorbs insertions without relabeling existing
// nodes (the prime scheme's defining property). Global document order is
// maintained through a simultaneous-congruence (SC) table built on the
// Chinese Remainder Theorem, so order-sensitive insertions update a handful
// of SC records instead of renumbering the tree. Path queries — an XPath
// subset with the order-sensitive axes following, preceding,
// following-sibling and preceding-sibling — run on the element table that
// labeld serves (internal/rdb, the paper's Section 5.2 relational mapping):
// one row per element in document order, whose subtree-extent column
// answers ancestry by integer comparison. The table is built at the first
// query and patched in place by every later update.
//
// Quick start:
//
//	doc, err := primelabel.LoadString(xml, primelabel.Config{
//		Scheme:     primelabel.Prime,
//		TrackOrder: true,
//	})
//	hits, err := doc.Query("/library//book[2]//following::book")
package primelabel

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/codec"
	"primelabel/internal/labeling/compact"
	"primelabel/internal/labeling/floatlab"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// SchemeKind selects a labeling scheme.
type SchemeKind string

// The available labeling schemes.
const (
	// Prime is the paper's top-down prime number scheme (the default).
	Prime SchemeKind = "prime"
	// PrimeBottomUp is the Figure 1 bottom-up variant (static).
	PrimeBottomUp SchemeKind = "prime-bottomup"
	// PrimeDecomposed is the layered variant for deep trees (Section 3.2's
	// tree decomposition).
	PrimeDecomposed SchemeKind = "prime-decomposed"
	// Interval is the XISS (order, size) baseline.
	Interval SchemeKind = "interval"
	// XRel is the (start, end) region baseline.
	XRel SchemeKind = "xrel"
	// Prefix1 is the unary-coded prefix baseline.
	Prefix1 SchemeKind = "prefix-1"
	// Prefix2 is the Cohen/Kaplan/Milo binary prefix baseline.
	Prefix2 SchemeKind = "prefix-2"
	// Dewey is the Dewey order labeling of Tatarinov et al.
	Dewey SchemeKind = "dewey"
	// Float is the QRS floating-point interval labeling.
	Float SchemeKind = "float"
	// Compact is the fixed-width (≤ two machine words) DFS-range ancestry
	// labeling in the style of the optimal interval schemes; static, with
	// constant-time comparison-based probes.
	Compact SchemeKind = "compact"
)

// Schemes lists every supported scheme kind.
func Schemes() []SchemeKind {
	names := codec.SchemeNames()
	out := make([]SchemeKind, len(names))
	for i, name := range names {
		out[i] = SchemeKind(name)
	}
	return out
}

// Config selects a scheme and its options.
type Config struct {
	// Scheme defaults to Prime.
	Scheme SchemeKind

	// TrackOrder enables document-order queries (Before, the ordered XPath
	// axes) for the prime scheme via the SC table. The interval, prefix
	// (with OrderPreserving), Dewey and float schemes carry order in their
	// labels regardless.
	TrackOrder bool

	// ReservedPrimes is the prime scheme's Opt1: how many small primes to
	// reserve for top-level nodes.
	ReservedPrimes int

	// PowerOfTwoLeaves is the prime scheme's Opt2.
	PowerOfTwoLeaves bool

	// Power2Threshold caps Opt2 exponents (0 = 16).
	Power2Threshold int

	// SCChunk is the number of nodes per SC record (0 = 5).
	SCChunk int

	// OrderSpacing spaces the prime scheme's order numbers apart so
	// order-sensitive inserts into open gaps touch a single SC record
	// (0 or 1 = the paper's dense numbering).
	OrderSpacing int

	// RecyclePrimes lets the prime scheme reuse the primes of deleted
	// nodes, bounding label growth under insert/delete churn.
	RecyclePrimes bool

	// OrderPreserving keeps prefix-scheme sibling codes in document order.
	OrderPreserving bool

	// LayerHeight is the decomposed scheme's layer height (0 = 4).
	LayerHeight int

	// KeepWhitespace retains whitespace-only text nodes when parsing.
	KeepWhitespace bool
}

// scheme materializes the configured labeling.Scheme from the scheme
// registry.
func (c Config) scheme() (labeling.Scheme, error) {
	s, ok := codec.NewScheme(string(c.Scheme), codec.Options{
		Prime: prime.Options{
			ReservedPrimes:   c.ReservedPrimes,
			PowerOfTwoLeaves: c.PowerOfTwoLeaves,
			Power2Threshold:  c.Power2Threshold,
			TrackOrder:       c.TrackOrder,
			SCChunk:          c.SCChunk,
			OrderSpacing:     c.OrderSpacing,
			RecyclePrimes:    c.RecyclePrimes,
		},
		OrderPreserving: c.OrderPreserving,
		LayerHeight:     c.LayerHeight,
	})
	if !ok {
		return nil, fmt.Errorf("primelabel: unknown scheme %q", c.Scheme)
	}
	return s, nil
}

// Node is a handle to one element of a labeled document. The zero Node is
// invalid.
type Node struct {
	n *xmltree.Node
}

// IsZero reports whether the handle is empty.
func (n Node) IsZero() bool { return n.n == nil }

// Name returns the element's tag name.
func (n Node) Name() string {
	if n.n == nil {
		return ""
	}
	return n.n.Name
}

// Text returns the element's direct character data.
func (n Node) Text() string {
	if n.n == nil {
		return ""
	}
	return n.n.Text()
}

// Attr returns the named attribute value.
func (n Node) Attr(name string) (string, bool) {
	if n.n == nil {
		return "", false
	}
	return n.n.Attr(name)
}

// Path returns the slash-separated tag path from the root.
func (n Node) Path() string {
	if n.n == nil {
		return ""
	}
	return xmltree.PathTo(n.n)
}

// Parent returns the parent element (zero for the root).
func (n Node) Parent() Node {
	if n.n == nil || n.n.Parent == nil {
		return Node{}
	}
	return Node{n: n.n.Parent}
}

// Children returns the element children in document order.
func (n Node) Children() []Node {
	if n.n == nil {
		return nil
	}
	kids := n.n.ElementChildren()
	out := make([]Node, len(kids))
	for i, k := range kids {
		out[i] = Node{n: k}
	}
	return out
}

// Depth returns the number of edges to the root.
func (n Node) Depth() int {
	if n.n == nil {
		return 0
	}
	return n.n.Depth()
}

// Document is a labeled XML document. All methods are safe for concurrent
// use: an internal mutex serializes every operation. The first Query builds
// the document's element table; every later update patches it, and an
// update the labeling fails drops it for a rebuild at the next Query.
type Document struct {
	mu  sync.Mutex
	cfg Config
	doc *xmltree.Document
	lab labeling.Labeling
	// table is the element table Query runs on, nil until the first Query
	// and after an update it could not be patched through.
	table *rdb.Table
}

// Load parses XML from r and labels it according to cfg.
func Load(r io.Reader, cfg Config) (*Document, error) {
	tree, err := xmlparse.ParseDocument(r, xmlparse.Options{KeepWhitespace: cfg.KeepWhitespace})
	if err != nil {
		return nil, err
	}
	return fromTree(tree, cfg)
}

// LoadString labels an in-memory XML document.
func LoadString(s string, cfg Config) (*Document, error) {
	return Load(strings.NewReader(s), cfg)
}

// fromTree labels an already-built tree.
func fromTree(tree *xmltree.Document, cfg Config) (*Document, error) {
	s, err := cfg.scheme()
	if err != nil {
		return nil, err
	}
	lab, err := s.Label(tree)
	if err != nil {
		return nil, err
	}
	return &Document{cfg: cfg, doc: tree, lab: lab}, nil
}

// SchemeName returns the active scheme identifier (including optimization
// suffixes for the prime scheme).
func (d *Document) SchemeName() string { return d.lab.SchemeName() }

// Root returns the root element.
func (d *Document) Root() Node { return Node{n: d.doc.Root} }

// Find returns all elements with the given tag name in document order.
func (d *Document) Find(tag string) []Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	els := xmltree.ElementsByName(d.doc.Root, tag)
	out := make([]Node, len(els))
	for i, e := range els {
		out[i] = Node{n: e}
	}
	return out
}

// Stats summarizes the document's structural parameters.
type Stats struct {
	Elements  int
	MaxDepth  int
	MaxFanout int
	Leaves    int
}

// Stats computes the document's structural summary.
func (d *Document) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := xmltree.ComputeStats(d.doc)
	return Stats{Elements: st.Nodes, MaxDepth: st.MaxDepth, MaxFanout: st.MaxFan, Leaves: st.Leaves}
}

// IsAncestor reports, from labels alone, whether a is a proper ancestor of
// b.
func (d *Document) IsAncestor(a, b Node) bool {
	if a.n == nil || b.n == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lab.IsAncestor(a.n, b.n)
}

// IsParent reports, from labels, whether a is b's parent.
func (d *Document) IsParent(a, b Node) bool {
	if a.n == nil || b.n == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lab.IsParent(a.n, b.n)
}

// Before reports whether a precedes b in document order. It requires an
// order-carrying configuration (TrackOrder for the prime scheme).
func (d *Document) Before(a, b Node) (bool, error) {
	if a.n == nil || b.n == nil {
		return false, errors.New("primelabel: zero node")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lab.Before(a.n, b.n)
}

// Query evaluates an XPath-subset expression, e.g.
//
//	/play//act[3]//following::act
//
// and returns matches in document order. It runs on the document's element
// table with the extent planner, the executor labeld serves queries with;
// the first call builds the table.
func (d *Document) Query(q string) ([]Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.table == nil {
		d.table = rdb.Build(d.lab)
		d.table.Plan = rdb.Extent
	}
	rows, err := d.table.ExecPathString(q)
	if err != nil {
		return nil, err
	}
	out := make([]Node, len(rows))
	for i, id := range rows {
		out[i] = Node{n: d.table.Node(id)}
	}
	return out, nil
}

// patch keeps the element table, if one was built, in step with an update
// of n (see rdb.Table.Patch): the inserted element or wrapper, or with
// removed set the deleted subtree's root. When the labeling returned err —
// it may have mutated state partway — or the patch cannot place n, the
// table is dropped and the next Query rebuilds it. Callers hold d.mu.
func (d *Document) patch(n *xmltree.Node, removed bool, err error) {
	if d.table != nil && (err != nil || !d.table.Patch(n, removed)) {
		d.table = nil
	}
}

// InsertChild inserts a new element with the given tag as the idx-th child
// of parent, returning the new node and the number of labels written —
// including the new node's — which for the prime scheme stays O(1)
// regardless of document size.
func (d *Document) InsertChild(parent Node, idx int, tag string) (Node, int, error) {
	if parent.n == nil {
		return Node{}, 0, errors.New("primelabel: zero parent")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := xmltree.NewElement(tag)
	count, err := d.lab.InsertChildAt(parent.n, parent.n.RawChildIndex(idx), n)
	d.patch(n, false, err)
	if err != nil {
		return Node{}, count, err
	}
	return Node{n: n}, count, nil
}

// InsertBefore inserts a new element with the given tag immediately before
// sibling.
func (d *Document) InsertBefore(sibling Node, tag string) (Node, int, error) {
	if sibling.n == nil || sibling.n.Parent == nil {
		return Node{}, 0, errors.New("primelabel: node has no parent")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	parent := sibling.n.Parent
	n := xmltree.NewElement(tag)
	count, err := d.lab.InsertChildAt(parent, parent.ChildIndex(sibling.n), n)
	d.patch(n, false, err)
	if err != nil {
		return Node{}, count, err
	}
	return Node{n: n}, count, nil
}

// InsertAfter inserts a new element with the given tag immediately after
// sibling.
func (d *Document) InsertAfter(sibling Node, tag string) (Node, int, error) {
	if sibling.n == nil || sibling.n.Parent == nil {
		return Node{}, 0, errors.New("primelabel: node has no parent")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	parent := sibling.n.Parent
	n := xmltree.NewElement(tag)
	count, err := d.lab.InsertChildAt(parent, parent.ChildIndex(sibling.n)+1, n)
	d.patch(n, false, err)
	if err != nil {
		return Node{}, count, err
	}
	return Node{n: n}, count, nil
}

// WrapParent inserts a new element with the given tag as target's parent
// (target becomes its only child).
func (d *Document) WrapParent(target Node, tag string) (Node, int, error) {
	if target.n == nil {
		return Node{}, 0, errors.New("primelabel: zero node")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := xmltree.NewElement(tag)
	count, err := d.lab.WrapNode(target.n, n)
	d.patch(n, false, err)
	if err != nil {
		return Node{}, count, err
	}
	return Node{n: n}, count, nil
}

// Delete removes the subtree rooted at n. No other labels change.
func (d *Document) Delete(n Node) error {
	if n.n == nil {
		return errors.New("primelabel: zero node")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.lab.Delete(n.n)
	d.patch(n.n, true, err)
	return err
}

// LabelBits returns the size in bits of n's label.
func (d *Document) LabelBits(n Node) int {
	if n.n == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lab.LabelBits(n.n)
}

// MaxLabelBits returns the fixed-length label size of the document.
func (d *Document) MaxLabelBits() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lab.MaxLabelBits()
}

// Label renders n's label in scheme-specific human-readable form: the
// integer label for the prime schemes, "(a,b)" for interval schemes, the
// bit string for prefix schemes, the dotted path for Dewey.
func (d *Document) Label(n Node) string {
	if n.n == nil {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return codec.LabelString(d.lab, n.n)
}

// SelfLabel returns the prime scheme's self-label for n (empty for other
// schemes).
func (d *Document) SelfLabel(n Node) string {
	if n.n == nil {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.lab.(*prime.Labeling); ok {
		return l.SelfLabelOf(n.n).String()
	}
	return ""
}

// ErrUnsupportedPersist reports a Save on a scheme with no persistence
// codec (the static study variants prime-bottomup and prime-decomposed).
var ErrUnsupportedPersist = codec.ErrUnsupported

// Save persists the labeled document — tree, labels, allocation state and,
// for the prime scheme, the SC table — in a compact binary format, so
// LoadSaved can restore it without relabeling (dynamic updates produce
// labels no relabeling pass would regenerate). The prime, interval, XRel,
// prefix, Dewey, float and compact schemes are persistable; Save returns
// ErrUnsupportedPersist for the static study variants prime-bottomup and
// prime-decomposed.
func (d *Document) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return codec.Marshal(d.lab, w)
}

// LoadSaved restores a document persisted with Save and verifies its
// consistency. Streams written by older versions of Save (which emitted the
// prime scheme's bare format without the codec header) load transparently.
func LoadSaved(r io.Reader) (*Document, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(codec.Magic))
	legacyPrime := err != nil || string(head) != string(codec.Magic)
	var lab labeling.Labeling
	if legacyPrime {
		lab, err = prime.Unmarshal(br)
	} else {
		lab, err = codec.Unmarshal(br)
	}
	if err != nil {
		return nil, err
	}
	return &Document{cfg: configOf(lab), doc: lab.Doc(), lab: lab}, nil
}

// configOf reconstructs the Config a restored labeling was built with, as
// far as the labeling records it.
func configOf(lab labeling.Labeling) Config {
	switch l := lab.(type) {
	case *prime.Labeling:
		o := l.Options()
		return Config{
			Scheme:           Prime,
			TrackOrder:       o.TrackOrder,
			ReservedPrimes:   o.ReservedPrimes,
			PowerOfTwoLeaves: o.PowerOfTwoLeaves,
			Power2Threshold:  o.Power2Threshold,
			SCChunk:          o.SCChunk,
			OrderSpacing:     o.OrderSpacing,
			RecyclePrimes:    o.RecyclePrimes,
		}
	case *interval.Labeling:
		if l.Variant() == interval.XRel {
			return Config{Scheme: XRel}
		}
		return Config{Scheme: Interval}
	case *prefix.Labeling:
		sc := l.Scheme()
		kind := Prefix1
		if sc.Variant == prefix.Prefix2 {
			kind = Prefix2
		}
		return Config{Scheme: kind, OrderPreserving: sc.OrderPreserving}
	case *prefix.DeweyLabeling:
		return Config{Scheme: Dewey}
	case *floatlab.Labeling:
		return Config{Scheme: Float}
	case *compact.Labeling:
		return Config{Scheme: Compact}
	default:
		return Config{}
	}
}

// WriteXML serializes the document.
func (d *Document) WriteXML(w io.Writer, indent string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Write(w, xmltree.WriteOptions{Indent: indent})
}

// XML returns the document serialized compactly.
func (d *Document) XML() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.String()
}

// Validate verifies the labeling's internal invariants. For the prime
// scheme this checks every label against its parent-product definition,
// self-prime uniqueness, and SC-table consistency; for all schemes on
// documents up to exhaustiveLimit elements it additionally compares every
// IsAncestor answer against tree ground truth (O(n²)).
func (d *Document) Validate() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.lab.(*prime.Labeling); ok {
		if err := l.Check(); err != nil {
			return err
		}
	}
	const exhaustiveLimit = 2000
	if len(xmltree.Elements(d.doc.Root)) <= exhaustiveLimit {
		return labeling.CheckAgainstTree(d.lab)
	}
	return nil
}
