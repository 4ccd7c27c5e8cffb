// Package prime implements the paper's primary contribution: the top-down
// prime number labeling scheme for dynamic ordered XML trees (Section 3),
// its three optimizations (Section 3.2), document-order maintenance through
// the simultaneous congruence table (Section 4), and the bottom-up variant
// of Figure 1.
//
// Every element node carries a label that is the product of its parent's
// label and its own self-label. Self-labels are distinct primes (or, under
// Opt2, successive powers of two for leaves), so
//
//	x is an ancestor of y  ⇔  label(y) mod label(x) == 0
//
// (with the odd-label guard of Property 3 when Opt2 is active). Newly
// inserted nodes consume fresh primes and never force relabeling of
// existing nodes — the property the paper's update experiments measure.
package prime

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"primelabel/internal/labeling"
	"primelabel/internal/order"
	"primelabel/internal/primes"
	"primelabel/internal/xmltree"
)

// Errors specific to the prime scheme.
var (
	ErrNotElement = errors.New("prime: only element nodes are labeled")
	ErrHasLabel   = errors.New("prime: node is already labeled")
)

// Options selects the optimizations from Section 3.2 and order support from
// Section 4.
type Options struct {
	// ReservedPrimes is Opt1: how many of the smallest primes to set aside
	// for the root's element children, whose self-labels are inherited by
	// every node below them. 0 disables the optimization; a negative value
	// sizes the pool automatically to the number of top-level nodes that
	// will consume reserved primes (recommended — a fixed pool larger than
	// the top level wastes the smallest primes entirely).
	ReservedPrimes int

	// PowerOfTwoLeaves is Opt2: label leaf elements 2^1, 2^2, … instead of
	// consuming primes, switching the ancestor test to Property 3
	// (ancestors must have odd labels). Prime 2 is then never used as a
	// self-label.
	PowerOfTwoLeaves bool

	// Power2Threshold caps the exponent used by Opt2. Once a parent has
	// issued this many power-of-two leaf labels, further leaf children fall
	// back to primes — the safety valve Section 3.2 describes for wide
	// sibling lists ("when the size of a label in a leaf node reaches some
	// pre-determined threshold, we can use other prime numbers"). Without
	// it a 1000-wide sibling list would mint a 1000-bit 2^k label while a
	// fresh prime costs ~15 bits. 0 means 16, past which primes are almost
	// always cheaper.
	Power2Threshold int

	// TrackOrder builds the SC table so the labeling can answer document
	// order queries and absorb order-sensitive updates (Section 4).
	TrackOrder bool

	// SCChunk is the number of nodes grouped under one SC value; the paper
	// uses 5 in Section 5.4. 0 means 5. Ignored unless TrackOrder is set.
	SCChunk int

	// OrderSpacing spaces order numbers G apart (an extension beyond the
	// paper): an order-sensitive insert between two nodes whose gap is
	// still open touches exactly one SC record instead of shifting every
	// follower. 0 or 1 is the paper's dense numbering. Ignored unless
	// TrackOrder is set.
	OrderSpacing int

	// RecyclePrimes returns the primes of deleted nodes to a pool for
	// reuse (an extension beyond the paper, which retires each prime
	// forever). Bounds label growth under insert/delete churn; see
	// recycle.go.
	RecyclePrimes bool
}

func (o Options) power2Threshold() int {
	if o.Power2Threshold <= 0 {
		return 16
	}
	return o.Power2Threshold
}

func (o Options) scChunk() int {
	if o.SCChunk <= 0 {
		return 5
	}
	return o.SCChunk
}

func (o Options) orderSpacing() int {
	if o.OrderSpacing <= 0 {
		return 1
	}
	return o.OrderSpacing
}

// Scheme labels documents with the top-down prime number scheme.
type Scheme struct {
	Opts Options
}

// Name implements labeling.Scheme. The variant suffixes identify the active
// optimizations, e.g. "prime+opt1+opt2".
func (s Scheme) Name() string {
	name := "prime"
	if s.Opts.ReservedPrimes != 0 {
		name += "+opt1"
	}
	if s.Opts.PowerOfTwoLeaves {
		name += "+opt2"
	}
	return name
}

// nodeLabel is the per-node labeling state.
type nodeLabel struct {
	label     *big.Int // full label: parent label × self label
	u64       uint64   // the label value when it fits in 64 bits (small == true)
	small     bool     // fast-path flag: label < 2^64
	bits      int32    // cached label.BitLen()
	depth     int32    // distance from the root (root = 0)
	sig       pathSig  // Bloom filter over the root path's self-labels
	selfPrime uint64   // prime self-label; 0 for power-of-two leaves and the root
	exp       int      // exponent k for a 2^k self-label; 0 otherwise
	orderKey  uint64   // prime keying this node in the SC table; 0 if untracked/root
	selfCache *big.Int // memoized selfBig; reset when the self-label changes
}

// setLabel stores the full label and refreshes the uint64 fast path. Most
// real documents have labels well under 64 bits (Section 3.1's size model),
// so ancestor tests usually reduce to one machine modulo.
//
// setLabel also materializes selfCache eagerly (the self-label fields are
// always final when the full label is computed). That keeps every read path
// — IsAncestor, IsParent, SelfLabelOf — free of writes, so a quiescent
// Labeling is safe for any number of concurrent readers; see the type's doc
// comment.
func (nl *nodeLabel) setLabel(v *big.Int) {
	nl.label = v
	nl.bits = int32(v.BitLen())
	if v.BitLen() <= 64 {
		nl.u64 = v.Uint64()
		nl.small = true
	} else {
		nl.u64 = 0
		nl.small = false
	}
	if nl.selfCache == nil {
		nl.selfBig()
	}
}

// selfBig returns the self-label as a big.Int. The value is memoized and
// must be treated as read-only by callers.
func (nl *nodeLabel) selfBig() *big.Int {
	if nl.selfCache != nil {
		return nl.selfCache
	}
	switch {
	case nl.selfPrime != 0:
		nl.selfCache = new(big.Int).SetUint64(nl.selfPrime)
	case nl.exp > 0:
		nl.selfCache = new(big.Int).Lsh(big.NewInt(1), uint(nl.exp))
	default:
		nl.selfCache = big.NewInt(1) // root
	}
	return nl.selfCache
}

// Labeling is a prime-labeled document.
//
// Concurrency: a Labeling is not internally synchronized, but all query
// methods (IsAncestor, IsParent, Before, OrderOf, LabelBits, MaxLabelBits,
// LabelOf, SelfLabelOf) are strictly read-only — no lazy memoization runs
// during reads — so any number of goroutines may query concurrently as long
// as no mutation (InsertChildAt, WrapNode, Delete) is in flight. Callers
// that mix queries and updates must serialize with an external lock such as
// a sync.RWMutex; the label server in internal/server does exactly that.
type Labeling struct {
	doc    *xmltree.Document
	opts   Options
	labels map[*xmltree.Node]*nodeLabel
	src    *primes.Source
	sct    *order.Table
	byKey  map[uint64]*xmltree.Node // order key -> node
	// power2Count tracks, per parent, how many power-of-two leaf labels
	// have been issued (Figure 7's childNum counter).
	power2Count map[*xmltree.Node]int
	// free pools the primes of deleted nodes when Options.RecyclePrimes is
	// set.
	free primeHeap
	// fastPath enables the constant-time ancestor prefilter (fastpath.go);
	// on by default, switchable off via SetFastPath for baselines.
	fastPath bool
	// stats, when non-nil, receives IsAncestor outcome counts.
	stats *AncestorStats
	// bitCount[b] is the number of live labels exactly b bits wide: the
	// label-size histogram behind MaxLabelBits. derive and Delete keep it
	// in step with every label set or dropped, and the slice never ends in
	// an empty bucket, so its length is one past the widest label.
	bitCount []int
}

var _ labeling.Labeling = (*Labeling)(nil)

// Label implements labeling.Scheme, running Figure 7's PrimeLabel algorithm
// over the document.
func (s Scheme) Label(doc *xmltree.Document) (labeling.Labeling, error) {
	l, err := s.New(doc)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// New labels doc and returns the concrete *Labeling (callers that need
// prime-specific accessors use this instead of the interface-typed Label).
func (s Scheme) New(doc *xmltree.Document) (*Labeling, error) {
	if doc == nil || doc.Root == nil {
		return nil, errors.New("prime: nil document")
	}
	if doc.Root.Kind != xmltree.ElementNode {
		return nil, ErrNotElement
	}
	opts := s.Opts
	if opts.TrackOrder && opts.OrderSpacing > maxResume {
		return nil, fmt.Errorf("prime: order spacing %d past %d", opts.OrderSpacing, maxResume)
	}
	var src *primes.Source
	if opts.PowerOfTwoLeaves {
		// Prime 2 is reserved for leaf labels: non-leaf self-labels must be
		// odd so Property 3's guard works.
		src = primes.NewSourceStartingAt(3)
	} else {
		src = primes.NewSource()
	}
	l := &Labeling{
		doc:         doc,
		opts:        opts,
		labels:      make(map[*xmltree.Node]*nodeLabel),
		src:         src,
		byKey:       make(map[uint64]*xmltree.Node),
		power2Count: make(map[*xmltree.Node]int),
		fastPath:    true,
	}
	if opts.ReservedPrimes != 0 {
		n := opts.ReservedPrimes
		if n < 0 {
			n = l.topLevelReserveCount()
		}
		src.Reserve(n)
	}
	if opts.TrackOrder {
		tbl, err := order.NewTableSpaced(opts.scChunk(), opts.orderSpacing(), src.NextAbove)
		if err != nil {
			return nil, err
		}
		l.sct = tbl
	}
	// Pass 1: assign labels in document order (Figure 7).
	l.assign(doc.Root, nil)
	// Pass 2: register document order.
	if opts.TrackOrder {
		ord := 0
		var fail error
		xmltree.WalkElements(doc.Root, func(n *xmltree.Node) bool {
			if n == doc.Root {
				return true // the root's order number is defined to be 0
			}
			ord++
			if err := l.trackNode(n, ord); err != nil {
				fail = err
				return false
			}
			return true
		})
		if fail != nil {
			return nil, fail
		}
	}
	return l, nil
}

// topLevelReserveCount counts the root's element children that will draw
// from the Opt1 pool: under Opt2, leaves take powers of two instead.
func (l *Labeling) topLevelReserveCount() int {
	count := 0
	for _, c := range l.doc.Root.Children {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		if l.opts.PowerOfTwoLeaves && c.IsLeaf() {
			continue
		}
		count++
	}
	return count
}

// assign labels the subtree rooted at n. parent is the nodeLabel of n's
// parent (nil for the root).
func (l *Labeling) assign(n *xmltree.Node, parent *nodeLabel) {
	nl := &nodeLabel{}
	switch {
	case parent == nil:
		// root: deriveFrom sets label 1
	case !n.IsLeaf():
		nl.selfPrime = l.nextNonLeafPrime(n)
	default:
		l.assignLeafSelf(n, nl)
	}
	l.derive(nl, parent)
	l.labels[n] = nl
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode {
			l.assign(c, nl)
		}
	}
}

// nextNonLeafPrime returns the self-label for a non-leaf element, drawing
// from the Opt1 reserved pool for top-level nodes.
func (l *Labeling) nextNonLeafPrime(n *xmltree.Node) uint64 {
	if p := l.recycledPrime(); p != 0 {
		return p
	}
	if l.opts.ReservedPrimes != 0 && n.Parent == l.doc.Root {
		return l.src.NextReserved()
	}
	return l.src.Next()
}

// assignLeafSelf fills nl with a leaf self-label: 2^k under Opt2 (until the
// threshold), a fresh prime otherwise.
func (l *Labeling) assignLeafSelf(n *xmltree.Node, nl *nodeLabel) {
	if l.opts.PowerOfTwoLeaves {
		k := l.power2Count[n.Parent] + 1
		if k <= l.opts.power2Threshold() {
			l.power2Count[n.Parent] = k
			nl.exp = k
			return
		}
	}
	nl.selfPrime = l.nextNonLeafPrime(n)
}

// trackNode registers n in the SC table at order position ord, choosing an
// order key: the node's own prime self-label when it can encode the order
// number, a fresh prime otherwise (power-of-two leaves never have a prime
// self-label; Opt1's small reserved primes may be smaller than the order
// number — an edge the paper does not address, see DESIGN.md).
func (l *Labeling) trackNode(n *xmltree.Node, ord int) error {
	nl := l.labels[n]
	ordVal := uint64(ord) * uint64(l.opts.orderSpacing())
	if ordVal > maxResume {
		return fmt.Errorf("prime: order %d×%d past %d", ord, l.opts.orderSpacing(), uint64(maxResume))
	}
	key := nl.selfPrime
	if key == 0 || ordVal >= key {
		key = l.src.NextAbove(ordVal)
	}
	if err := l.sct.Append(key); err != nil {
		return fmt.Errorf("prime: SC table append: %w", err)
	}
	nl.orderKey = key
	l.byKey[key] = n
	return nil
}

// SchemeName implements labeling.Labeling.
func (l *Labeling) SchemeName() string { return Scheme{Opts: l.opts}.Name() }

// Doc implements labeling.Labeling.
func (l *Labeling) Doc() *xmltree.Document { return l.doc }

// Options returns the options this labeling was built with.
func (l *Labeling) Options() Options { return l.opts }

// LabelOf returns n's full label (a copy), or nil if n is unlabeled.
func (l *Labeling) LabelOf(n *xmltree.Node) *big.Int {
	nl, ok := l.labels[n]
	if !ok {
		return nil
	}
	return new(big.Int).Set(nl.label)
}

// SelfLabelOf returns n's self-label (a copy), or nil if n is unlabeled.
func (l *Labeling) SelfLabelOf(n *xmltree.Node) *big.Int {
	nl, ok := l.labels[n]
	if !ok {
		return nil
	}
	return new(big.Int).Set(nl.selfBig())
}

// IsAncestor implements Property 2 (and Property 3 when Opt2 is active):
// x is a proper ancestor of y iff label(y) mod label(x) == 0, with x's
// label required to be odd under Opt2. With the fast path enabled (the
// default), most non-ancestor pairs are rejected by the constant-time
// depth/bit-length/path-signature prefilter (fastpath.go) before any
// division runs; the prefilter is one-sided, so the result is identical
// either way. Concurrent readers are safe: the only writes are atomic
// adds on the optional stats counters and sync.Pool traffic.
func (l *Labeling) IsAncestor(a, b *xmltree.Node) bool {
	la, ok := l.labels[a]
	if !ok {
		return false
	}
	lb, ok := l.labels[b]
	if !ok {
		return false
	}
	if l.opts.PowerOfTwoLeaves && la.label.Bit(0) == 0 {
		return false // Property 3: even labels are leaves, never ancestors
	}
	if l.fastPath && (la.depth >= lb.depth || la.bits > lb.bits || !la.sig.subsetOf(lb.sig)) {
		if s := l.stats; s != nil {
			s.PrefilterRejects.Add(1)
		}
		return false
	}
	if la.small && lb.small {
		if s := l.stats; s != nil {
			s.ExactU64.Add(1)
		}
		if la.u64 != lb.u64 && lb.u64%la.u64 == 0 {
			if s := l.stats; s != nil {
				s.ExactTrue.Add(1)
			}
			return true
		}
		return false
	}
	if la.bits > lb.bits {
		return false // a label never divides a shorter one
	}
	if la.label.Cmp(lb.label) == 0 {
		return false // same node (labels are unique)
	}
	if s := l.stats; s != nil {
		s.ExactBig.Add(1)
	}
	r := remPool.Get().(*big.Int)
	zero := r.Rem(lb.label, la.label).Sign() == 0
	remPool.Put(r)
	if zero {
		if s := l.stats; s != nil {
			s.ExactTrue.Add(1)
		}
		return true
	}
	return false
}

// IsParent reports whether a is b's parent: a must be an ancestor and
// label(b) / label(a) must equal b's self-label.
func (l *Labeling) IsParent(a, b *xmltree.Node) bool {
	if !l.IsAncestor(a, b) {
		return false
	}
	la, lb := l.labels[a], l.labels[b]
	if la.small && lb.small {
		var selfU uint64
		if lb.selfPrime != 0 {
			selfU = lb.selfPrime
		} else if lb.exp > 0 && lb.exp < 64 {
			selfU = 1 << uint(lb.exp)
		}
		if selfU != 0 {
			return lb.u64/la.u64 == selfU
		}
	}
	q := remPool.Get().(*big.Int)
	eq := q.Quo(lb.label, la.label).Cmp(lb.selfBig()) == 0
	remPool.Put(q)
	return eq
}

// LabelBits implements labeling.Labeling: the bit length of the stored
// label integer, cached when the label was set.
func (l *Labeling) LabelBits(n *xmltree.Node) int {
	nl, ok := l.labels[n]
	if !ok {
		return 0
	}
	return int(nl.bits)
}

// MaxLabelBits implements labeling.Labeling in O(1): the widest label is
// the top bucket of the maintained label-size histogram, not a walk.
func (l *Labeling) MaxLabelBits() int {
	if len(l.bitCount) == 0 {
		return 0
	}
	return len(l.bitCount) - 1
}

// derive (re)computes nl's full label from its parent's (see deriveFrom)
// and moves nl between label-size histogram buckets. Every label the
// Labeling sets goes through here; nl.label is nil for a node not yet
// counted.
func (l *Labeling) derive(nl, parent *nodeLabel) {
	if nl.label != nil {
		l.uncount(nl)
	}
	nl.deriveFrom(parent)
	b := int(nl.bits)
	for len(l.bitCount) <= b {
		l.bitCount = append(l.bitCount, 0)
	}
	l.bitCount[b]++
}

// uncount drops nl's label from the label-size histogram, trimming empty
// top buckets so MaxLabelBits stays a length read.
func (l *Labeling) uncount(nl *nodeLabel) {
	l.bitCount[nl.bits]--
	for n := len(l.bitCount); n > 0 && l.bitCount[n-1] == 0; n-- {
		l.bitCount = l.bitCount[:n-1]
	}
}

// OrderOf returns n's global order number (root = 0). Requires TrackOrder.
func (l *Labeling) OrderOf(n *xmltree.Node) (int, error) {
	if l.sct == nil {
		return 0, labeling.ErrOrderUnsupported
	}
	if n == l.doc.Root {
		return 0, nil
	}
	nl, ok := l.labels[n]
	if !ok {
		return 0, labeling.ErrNotLabeled
	}
	return l.sct.OrderOf(nl.orderKey)
}

// Before implements labeling.Labeling using the SC table.
func (l *Labeling) Before(a, b *xmltree.Node) (bool, error) {
	oa, err := l.OrderOf(a)
	if err != nil {
		return false, err
	}
	ob, err := l.OrderOf(b)
	if err != nil {
		return false, err
	}
	return oa < ob, nil
}

// SCTable exposes the underlying SC table (nil unless TrackOrder).
func (l *Labeling) SCTable() *order.Table { return l.sct }

// Check verifies every internal invariant: each label is parent label ×
// self label, labels and self primes are unique, power-of-two self-labels
// sit only on Opt2 leaves and Opt2 never uses prime 2, the label-size
// histogram equals a recount of the live labels, no prime the labeling can
// still hand out is in use (see checkAllocator), and (when tracking order)
// the SC table is consistent, keys exactly the non-root elements and agrees
// with document order. Tests call this after every mutation.
func (l *Labeling) Check() error {
	seenPrime := make(map[uint64]*xmltree.Node)
	seenLabel := make(map[string]*xmltree.Node)
	var recount []int
	var fail error
	xmltree.WalkElements(l.doc.Root, func(n *xmltree.Node) bool {
		nl, ok := l.labels[n]
		if !ok {
			fail = fmt.Errorf("prime: %s unlabeled", xmltree.PathTo(n))
			return false
		}
		if key := nl.label.String(); seenLabel[key] != nil {
			fail = fmt.Errorf("prime: label %s shared by %s and %s", key, xmltree.PathTo(seenLabel[key]), xmltree.PathTo(n))
			return false
		} else {
			seenLabel[key] = n
		}
		var want big.Int
		if n.Parent == nil {
			want.SetInt64(1)
		} else {
			want.Mul(l.labels[n.Parent].label, nl.selfBig())
		}
		if want.Cmp(nl.label) != 0 {
			fail = fmt.Errorf("prime: %s label %v != parent×self %v", xmltree.PathTo(n), nl.label, &want)
			return false
		}
		b := nl.label.BitLen()
		if int(nl.bits) != b {
			fail = fmt.Errorf("prime: %s caches %d label bits, label has %d", xmltree.PathTo(n), nl.bits, b)
			return false
		}
		for len(recount) <= b {
			recount = append(recount, 0)
		}
		recount[b]++
		if nl.selfPrime != 0 {
			if prev, dup := seenPrime[nl.selfPrime]; dup {
				fail = fmt.Errorf("prime: self prime %d reused by %s and %s", nl.selfPrime, xmltree.PathTo(prev), xmltree.PathTo(n))
				return false
			}
			seenPrime[nl.selfPrime] = n
			if !primes.IsPrime(nl.selfPrime) {
				fail = fmt.Errorf("prime: self label %d of %s is composite", nl.selfPrime, xmltree.PathTo(n))
				return false
			}
		}
		// Property 3 reads an even label as a leaf's, so under Opt2 only
		// leaves are self-labelled 2^k and prime 2 is never used; without
		// Opt2 no self-label is a power of two above 2.
		if nl.exp > 0 && (!l.opts.PowerOfTwoLeaves || !n.IsLeaf() || nl.selfPrime != 0) {
			fail = fmt.Errorf("prime: %s self-labelled 2^%d is not an Opt2 leaf", xmltree.PathTo(n), nl.exp)
			return false
		}
		if nl.selfPrime == 2 && l.opts.PowerOfTwoLeaves {
			fail = fmt.Errorf("prime: %s self-labelled 2 under Opt2", xmltree.PathTo(n))
			return false
		}
		return true
	})
	if fail != nil {
		return fail
	}
	if len(l.labels) != len(xmltree.Elements(l.doc.Root)) {
		return fmt.Errorf("prime: %d labels for %d elements", len(l.labels), len(xmltree.Elements(l.doc.Root)))
	}
	if !slices.Equal(recount, l.bitCount) {
		return fmt.Errorf("prime: label-size histogram %v, recount %v", l.bitCount, recount)
	}
	if err := l.checkAllocator(); err != nil {
		return err
	}
	if l.sct != nil {
		if err := l.sct.Verify(); err != nil {
			return err
		}
		// The table keys every element but the root and nothing else; an
		// extra key would hold an order number a later insert can take.
		if l.sct.Len() != len(l.labels)-1 {
			return fmt.Errorf("prime: SC table holds %d keys for %d elements", l.sct.Len(), len(l.labels)-1)
		}
		// Order numbers must be strictly increasing in document order
		// (deletions leave gaps, so exact values are not checked).
		prev := 0
		var err error
		xmltree.WalkElements(l.doc.Root, func(n *xmltree.Node) bool {
			if n == l.doc.Root {
				return true
			}
			got, oerr := l.OrderOf(n)
			if oerr != nil {
				err = oerr
				return false
			}
			if got <= prev {
				err = fmt.Errorf("prime: %s order %d not after %d", xmltree.PathTo(n), got, prev)
				return false
			}
			prev = got
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAllocator verifies that no prime the labeling can still hand out is
// a live self-label or order key, or 2 under Opt2, where 2 belongs to the
// power-of-two leaves. The source hands out its next prime and every prime
// above it, so that prime must exceed every live one; the unconsumed
// reserved primes and the recycling pool must hold distinct primes below
// it that are not live. The SC table's high-water mark may lie at or above
// the next prime: it stays where a deleted member left it, shifts raise it
// further, and a key drawn for an order above it comes from NextAbove.
func (l *Labeling) checkAllocator() error {
	live := map[uint64]bool{2: l.opts.PowerOfTwoLeaves}
	for _, nl := range l.labels {
		live[nl.selfPrime] = true
	}
	for _, nl := range l.labels {
		// A dedicated order key is no other label's: a rekey frees it.
		if k := nl.orderKey; k != 0 && k != nl.selfPrime && live[k] {
			return fmt.Errorf("prime: order key %d is also a self-label or another element's key", k)
		}
		live[nl.orderKey] = true
	}
	delete(live, 0)
	next, reserved, _ := l.src.SnapshotState()
	for p, inUse := range live {
		if inUse && p >= next {
			return fmt.Errorf("prime: live prime %d is at or above the source's next prime %d", p, next)
		}
	}
	pending := make(map[uint64]bool, len(reserved)+len(l.free))
	for _, p := range append(reserved, l.free...) {
		switch {
		case !primes.IsPrime(p) || p >= next:
			return fmt.Errorf("prime: pooled %d is not a prime below the source's next prime %d", p, next)
		case live[p]:
			return fmt.Errorf("prime: pooled prime %d is in use", p)
		case pending[p]:
			return fmt.Errorf("prime: prime %d is pooled twice", p)
		}
		pending[p] = true
	}
	return nil
}
