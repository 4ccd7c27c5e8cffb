package primes

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSieveSmall(t *testing.T) {
	want := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	got := Sieve(29)
	if len(got) != len(want) {
		t.Fatalf("Sieve(29) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sieve(29)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSieveEdgeCases(t *testing.T) {
	if got := Sieve(0); got != nil {
		t.Errorf("Sieve(0) = %v, want nil", got)
	}
	if got := Sieve(1); got != nil {
		t.Errorf("Sieve(1) = %v, want nil", got)
	}
	if got := Sieve(2); len(got) != 1 || got[0] != 2 {
		t.Errorf("Sieve(2) = %v, want [2]", got)
	}
}

func TestSievePiValues(t *testing.T) {
	// Known values of π(x).
	cases := map[uint64]int{
		10: 4, 100: 25, 1000: 168, 10000: 1229, 100000: 9592,
	}
	for limit, want := range cases {
		if got := CountBelow(limit); got != want {
			t.Errorf("π(%d) = %d, want %d", limit, got, want)
		}
	}
}

func TestSegmentedMatchesSieve(t *testing.T) {
	full := Sieve(100000)
	var seg []uint64
	for lo := uint64(0); lo <= 100000; lo += 7919 {
		hi := lo + 7918
		if hi > 100000 {
			hi = 100000
		}
		seg = append(seg, Segmented(lo, hi)...)
	}
	if len(seg) != len(full) {
		t.Fatalf("segmented found %d primes, sieve found %d", len(seg), len(full))
	}
	for i := range full {
		if seg[i] != full[i] {
			t.Fatalf("mismatch at %d: segmented %d, sieve %d", i, seg[i], full[i])
		}
	}
}

func TestSegmentedEmptyAndInverted(t *testing.T) {
	if got := Segmented(24, 28); got != nil {
		t.Errorf("Segmented(24,28) = %v, want nil (no primes)", got)
	}
	if got := Segmented(100, 50); got != nil {
		t.Errorf("Segmented(100,50) = %v, want nil", got)
	}
	if got := Segmented(0, 1); got != nil {
		t.Errorf("Segmented(0,1) = %v, want nil", got)
	}
}

func TestIsPrimeAgainstSieve(t *testing.T) {
	const limit = 20000
	set := map[uint64]bool{}
	for _, p := range Sieve(limit) {
		set[p] = true
	}
	for n := uint64(0); n <= limit; n++ {
		if IsPrime(n) != set[n] {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, IsPrime(n), set[n])
		}
	}
}

func TestIsPrimeLargeKnown(t *testing.T) {
	primes := []uint64{
		2147483647,           // Mersenne prime 2^31-1
		4294967311,           // first prime above 2^32
		1000000000000000003,  // known 19-digit prime
		18446744073709551557, // largest 64-bit prime
	}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	composites := []uint64{
		2147483647 * 2, 4294967311 - 2, 18446744073709551556, 1 << 62,
		3215031751, // strong pseudoprime to bases 2,3,5,7
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 2}, {1, 2}, {2, 3}, {3, 5}, {13, 17}, {14, 17}, {7918, 7919},
	}
	for _, c := range cases {
		if got := NextPrime(c.in); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSourceSequential(t *testing.T) {
	s := NewSource()
	want := Sieve(541) // first 100 primes
	for i, p := range want {
		if got := s.Next(); got != p {
			t.Fatalf("prime #%d: got %d, want %d", i+1, got, p)
		}
	}
	if s.Issued() != 100 {
		t.Errorf("Issued() = %d, want 100", s.Issued())
	}
}

func TestSourcePeekDoesNotConsume(t *testing.T) {
	s := NewSource()
	if s.Peek() != 2 || s.Peek() != 2 {
		t.Fatal("Peek consumed a prime")
	}
	if s.Next() != 2 || s.Next() != 3 {
		t.Fatal("Next out of order after Peek")
	}
}

func TestSourceReserve(t *testing.T) {
	s := NewSource()
	s.Reserve(4) // reserves 2,3,5,7
	if got := s.Next(); got != 11 {
		t.Fatalf("Next after Reserve(4) = %d, want 11", got)
	}
	for _, want := range []uint64{2, 3, 5, 7} {
		if got := s.NextReserved(); got != want {
			t.Fatalf("NextReserved = %d, want %d", got, want)
		}
	}
	// Pool exhausted: falls back to the regular stream.
	if got := s.NextReserved(); got != 13 {
		t.Fatalf("NextReserved fallback = %d, want 13", got)
	}
	if s.ReservedLeft() != 0 {
		t.Errorf("ReservedLeft = %d, want 0", s.ReservedLeft())
	}
}

func TestSourceStartingAt(t *testing.T) {
	s := NewSourceStartingAt(3)
	if got := s.Next(); got != 3 {
		t.Fatalf("NewSourceStartingAt(3).Next() = %d, want 3", got)
	}
	s2 := NewSourceStartingAt(14)
	if got := s2.Next(); got != 17 {
		t.Fatalf("NewSourceStartingAt(14).Next() = %d, want 17", got)
	}
}

// TestSourceNextAbove draws keys above a bound: inside the sieved range,
// just past it, and far past it, where the source must sieve from the
// bound rather than through every number below it.
func TestSourceNextAbove(t *testing.T) {
	s := NewSource()
	s.Next() // 2; the first sieve covers 2..256
	for _, c := range []struct{ min, want uint64 }{
		{1, 3}, {10, 11}, {11, 13}, {300, 307}, {1 << 40, 1<<40 + 15}, {0, 1<<40 + 27},
	} {
		if got := s.NextAbove(c.min); got != c.want {
			t.Fatalf("NextAbove(%d) = %d, want %d", c.min, got, c.want)
		}
	}
	if got := s.Next(); got != 1<<40+55 {
		t.Errorf("Next after the far draws = %d, want %d", got, uint64(1<<40+55))
	}
}

func TestSourceNeverRepeats(t *testing.T) {
	s := NewSource()
	seen := map[uint64]bool{}
	prev := uint64(0)
	for i := 0; i < 5000; i++ {
		p := s.Next()
		if seen[p] {
			t.Fatalf("prime %d issued twice", p)
		}
		if p <= prev {
			t.Fatalf("primes not ascending: %d after %d", p, prev)
		}
		if !IsPrime(p) {
			t.Fatalf("source issued composite %d", p)
		}
		seen[p] = true
		prev = p
	}
}

func TestFirstN(t *testing.T) {
	if got := FirstN(0); got != nil {
		t.Errorf("FirstN(0) = %v, want nil", got)
	}
	got := FirstN(10000)
	if len(got) != 10000 {
		t.Fatalf("FirstN(10000) returned %d primes", len(got))
	}
	if got[9999] != 104729 { // the 10000th prime
		t.Errorf("10000th prime = %d, want 104729", got[9999])
	}
	if got[0] != 2 || got[5] != 13 {
		t.Errorf("FirstN small prefix wrong: %v", got[:6])
	}
}

func TestNthEstimateWithinPaperError(t *testing.T) {
	// Figure 3: the estimated bit length log2(n ln n) tracks the actual bit
	// length of the n-th prime within ±1 bit over the first 10000 primes.
	ps := FirstN(10000)
	for i, p := range ps {
		n := i + 1
		if n < 10 {
			continue // estimate is only asymptotic
		}
		est := EstimatedBitLen(n)
		act := ActualBitLen(p)
		if diff := est - act; diff < -1 || diff > 1 {
			t.Fatalf("n=%d: estimated %d bits, actual %d bits (prime %d)", n, est, act, p)
		}
	}
}

func TestMulmodAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var x, y, m big.Int
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		mod := rng.Uint64()
		if mod == 0 {
			mod = 1
		}
		got := mulmod(a, b, mod)
		x.SetUint64(a)
		y.SetUint64(b)
		m.SetUint64(mod)
		x.Mul(&x, &y).Mod(&x, &m)
		if want := x.Uint64(); got != want {
			t.Fatalf("mulmod(%d,%d,%d) = %d, want %d", a, b, mod, got, want)
		}
	}
}

func TestPowmodKnownValues(t *testing.T) {
	if got := powmod(2, 10, 1000); got != 24 {
		t.Errorf("2^10 mod 1000 = %d, want 24", got)
	}
	if got := powmod(3, 0, 7); got != 1 {
		t.Errorf("3^0 mod 7 = %d, want 1", got)
	}
	if got := powmod(10, 18, 1000000007); got != 49 {
		t.Errorf("10^18 mod 1e9+7 = %d, want 49", got)
	}
	if got := powmod(5, 117, 1); got != 0 {
		t.Errorf("x mod 1 = %d, want 0", got)
	}
}

func TestQuickNextPrimeIsNextPrime(t *testing.T) {
	f := func(n uint32) bool {
		p := NextPrime(uint64(n))
		if !IsPrime(p) || p <= uint64(n) {
			return false
		}
		// Nothing prime strictly between n and p.
		for q := uint64(n) + 1; q < p; q++ {
			if IsPrime(q) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
