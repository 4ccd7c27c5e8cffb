package primes

import (
	"fmt"
	"sync"
)

// Source hands out primes in ascending order, never repeating one. It is the
// allocator behind the labeling scheme's getPrime()/getReservedPrime()
// functions (Figure 7 of the paper): every node's self-label must be a prime
// no other node has used.
//
// Primes are produced from a growing sieve in batches so that labeling a
// large document costs amortized O(n log log n) rather than a Miller–Rabin
// test per node. A Source is safe for concurrent use: every method holds an
// internal mutex, so concurrent allocators (e.g. the label server applying
// inserts from several requests) can share one source without ever being
// handed the same prime twice.
type Source struct {
	mu       sync.Mutex
	buf      []uint64 // sieved primes not yet handed out
	pos      int      // next index in buf
	sievedTo uint64   // everything <= sievedTo has been sieved
	reserved []uint64 // small primes set aside by Reserve, FIFO
	issued   int      // total primes handed out (reserved + regular)
}

// NewSource returns a Source whose first prime is 2.
func NewSource() *Source {
	return &Source{}
}

// NewSourceStartingAt returns a Source whose first prime is the smallest
// prime >= n. Useful for Opt2, where leaf labels use powers of two and the
// non-leaf allocator should skip 2.
func NewSourceStartingAt(n uint64) *Source {
	s := &Source{}
	if n > 2 {
		s.sievedTo = n - 1
	}
	return s
}

// Resume reconstructs a Source from persisted state: the next prime it
// would hand out, the remaining reserved pool, and the total issued so far.
// Used when unmarshaling a labeled document so allocation continues exactly
// where it stopped.
func Resume(nextAt uint64, reserved []uint64, issued int) *Source {
	s := NewSourceStartingAt(nextAt)
	s.reserved = append([]uint64(nil), reserved...)
	s.issued = issued
	return s
}

// SnapshotState returns the persistable state of the source: the next
// prime, the remaining reserved pool, and the issue count.
func (s *Source) SnapshotState() (nextAt uint64, reserved []uint64, issued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peek(), append([]uint64(nil), s.reserved...), s.issued
}

// sieveWindow caps how far one grow sieves past what is already sieved, so
// a source resumed far out allocates a bounded segment, not one as large as
// its resume point.
const sieveWindow = 1 << 20

// grow extends the sieve so buf has at least one unconsumed prime. Callers
// must hold mu.
func (s *Source) grow() {
	for s.pos >= len(s.buf) {
		lo := s.sievedTo + 1
		hi := s.sievedTo + min(s.sievedTo, sieveWindow)
		if hi < 256 {
			hi = 256
		}
		s.buf = Segmented(lo, hi)
		s.pos = 0
		s.sievedTo = hi
	}
}

// next returns the next unused prime. Callers must hold mu.
func (s *Source) next() uint64 {
	s.grow()
	p := s.buf[s.pos]
	s.pos++
	s.issued++
	return p
}

// peek returns the prime next would return. Callers must hold mu.
func (s *Source) peek() uint64 {
	s.grow()
	return s.buf[s.pos]
}

// Next returns the next unused prime.
func (s *Source) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// NextAbove returns the smallest unused prime greater than min. It passes
// over the unused primes up to min for good, as drawing Next until a prime
// exceeds min would, but once the sieved primes run out it sieves on from
// min itself rather than through every number below it. Issued counts the
// passed-over primes that were already sieved, not those it sieves past.
func (s *Source) NextAbove(min uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.pos >= len(s.buf) && min > s.sievedTo {
			s.sievedTo = min
		}
		if p := s.next(); p > min {
			return p
		}
	}
}

// Peek returns the prime Next would return, without consuming it.
func (s *Source) Peek() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peek()
}

// Reserve sets aside the next n primes for later retrieval via NextReserved.
// The paper's Opt1 reserves a pool of small primes for the root's children
// so that top-level labels — inherited by every descendant — stay short.
func (s *Source) Reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.grow()
		s.reserved = append(s.reserved, s.buf[s.pos])
		s.pos++
	}
}

// NextReserved returns the next reserved prime. If the reserved pool is
// exhausted it falls back to Next, mirroring the paper's algorithm which
// only benefits while small primes remain in the pool.
func (s *Source) NextReserved() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.reserved) > 0 {
		p := s.reserved[0]
		s.reserved = s.reserved[1:]
		s.issued++
		return p
	}
	return s.next()
}

// ReservedLeft returns how many reserved primes remain unconsumed.
func (s *Source) ReservedLeft() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reserved)
}

// Issued returns how many primes this source has handed out in total.
func (s *Source) Issued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued
}

// String implements fmt.Stringer for diagnostics.
func (s *Source) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("primes.Source{issued=%d reserved=%d sievedTo=%d}", s.issued, len(s.reserved), s.sievedTo)
}
