package prime

// Fast ancestor test: constant-time prefilters that reject most
// non-ancestor pairs before the exact divisibility check runs.
//
// The exact test (Property 2) divides two big integers. On deep documents
// labels overflow 64 bits and every IsAncestor call pays a big.Int Rem —
// the dominant cost of descendant-axis queries, which probe |candidates|
// pairs per context node. Following the fixed-width ancestry-labeling
// results of Dahlgaard et al. and Fraigniaud & Korman (see DESIGN.md §9),
// each node caches three machine-word summaries of its root path at
// labeling time:
//
//   - depth: a proper ancestor is strictly shallower;
//   - label bit length: a divisor is never longer than its multiple;
//   - a 128-bit path signature: a Bloom filter over the self-labels on
//     the node's root path. label(a) divides label(b) only if every
//     self-label factor of a also appears in b's root path, so
//     sig(a) ⊄ sig(b) proves non-ancestry.
//
// All three are one-sided: they only ever reject pairs the exact test
// would also reject, never accept. Pairs that survive fall through to the
// exact uint64 or big.Int division, so query results are byte-identical
// with the fast path on or off.

import (
	"math/big"
	"sync"
	"sync/atomic"
)

// pathSig is a 128-bit Bloom filter over the self-labels on a node's root
// path; k=2 bit positions are set per self-label. An ancestor's root path
// is a prefix of its descendant's, so sig(ancestor) ⊆ sig(descendant) —
// any signature bit of a missing from b proves a is not an ancestor of b.
type pathSig [2]uint64

// add sets the two filter bits for one self-label key.
func (s *pathSig) add(key uint64) {
	h := splitmix64(key)
	s[(h>>6)&1] |= 1 << (h & 63)
	h = splitmix64(h)
	s[(h>>6)&1] |= 1 << (h & 63)
}

// subsetOf reports whether every bit of s is also set in t.
func (s pathSig) subsetOf(t pathSig) bool {
	return s[0]&^t[0] == 0 && s[1]&^t[1] == 0
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap
// avalanche mix spreading self-label keys uniformly over filter bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sigKey returns the self-label value fed into the path signature: the
// prime self-label, or (for power-of-two leaves) the exponent mapped into
// a range disjoint from the primes. The root contributes no key.
func (nl *nodeLabel) sigKey() uint64 {
	if nl.selfPrime != 0 {
		return nl.selfPrime
	}
	return ^uint64(uint(nl.exp))
}

// deriveFrom computes nl's full label and fast-path state (depth and path
// signature) from its parent's label state. The self-label fields
// (selfPrime/exp, and a reset selfCache if they changed) must be final
// before the call. A nil parent labels the root: label 1, depth 0, empty
// signature.
func (nl *nodeLabel) deriveFrom(parent *nodeLabel) {
	if parent == nil {
		nl.depth = 0
		nl.sig = pathSig{}
		nl.setLabel(big.NewInt(1))
		return
	}
	nl.depth = parent.depth + 1
	nl.sig = parent.sig
	nl.sig.add(nl.sigKey())
	nl.setLabel(new(big.Int).Mul(parent.label, nl.selfBig()))
}

// AncestorStats counts IsAncestor outcomes with atomic counters so
// concurrent queries can share one instance. A nil *AncestorStats on
// a Labeling disables counting entirely. Counters are monotonic; readers
// use Load on each field or the derived RejectRatio.
type AncestorStats struct {
	// PrefilterRejects counts pairs rejected by the depth, bit-length, or
	// path-signature prefilter — no division of any kind ran.
	PrefilterRejects atomic.Uint64
	// ExactU64 counts exact tests answered by one uint64 modulo (both
	// labels fit in a machine word).
	ExactU64 atomic.Uint64
	// ExactBig counts exact tests that paid a big.Int Rem.
	ExactBig atomic.Uint64
	// ExactTrue counts exact tests that confirmed ancestry.
	ExactTrue atomic.Uint64
}

// RejectRatio returns the fraction of non-ancestor outcomes caught by the
// prefilter before any division ran: rejects / (rejects + exact tests
// that came back false). Returns 0 when no non-ancestor pair has been
// seen.
func (s *AncestorStats) RejectRatio() float64 {
	rej := s.PrefilterRejects.Load()
	exactFalse := s.ExactU64.Load() + s.ExactBig.Load() - s.ExactTrue.Load()
	if rej+exactFalse == 0 {
		return 0
	}
	return float64(rej) / float64(rej+exactFalse)
}

// SetStats installs (or, with nil, removes) the outcome counters bumped
// by IsAncestor and IsParent. Not synchronized with queries: install
// before the labeling is shared across goroutines, or while holding the
// caller's write lock.
func (l *Labeling) SetStats(s *AncestorStats) { l.stats = s }

// SetFastPath enables or disables the constant-time ancestor prefilter
// (enabled by default). Results are identical either way; disabling
// exists so benchmarks can measure the exact-test baseline. Not
// synchronized with queries — same discipline as SetStats.
func (l *Labeling) SetFastPath(enabled bool) { l.fastPath = enabled }

// remPool recycles the scratch big.Int used by the exact Rem/Quo path, so
// steady-state IsAncestor calls allocate nothing.
var remPool = sync.Pool{New: func() any { return new(big.Int) }}
