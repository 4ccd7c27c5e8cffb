// Package numtheory implements the number-theoretic toolkit required by the
// prime number labeling scheme: GCD/extended GCD, modular inverses, Euler's
// totient, and Chinese-Remainder-Theorem solvers over both uint64 and
// math/big moduli. The CRT solvers are the engine behind the paper's
// simultaneous congruence (SC) table (Section 4).
package numtheory

import (
	"errors"
	"math/big"
)

// ErrNotCoprime is returned when a modular inverse or CRT solution does not
// exist because two moduli (or a value and its modulus) share a factor.
var ErrNotCoprime = errors.New("numtheory: moduli are not pairwise coprime")

// GCD returns the greatest common divisor of a and b. GCD(0, 0) = 0.
func GCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ExtGCD returns g = gcd(a, b) along with Bézout coefficients x, y such that
// a*x + b*y = g.
func ExtGCD(a, b int64) (g, x, y int64) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := ExtGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// ModInverse returns the multiplicative inverse of a modulo m, i.e. the x in
// [0, m) with a*x ≡ 1 (mod m). It returns ErrNotCoprime if gcd(a, m) != 1.
// Moduli below 2⁶³ — every order key — run the allocation-free int64
// extended GCD; larger ones do not fit it and go through math/big.
func ModInverse(a, m uint64) (uint64, error) {
	if m == 0 {
		return 0, errors.New("numtheory: zero modulus")
	}
	if m == 1 {
		return 0, nil
	}
	if m >= 1<<63 {
		var inv big.Int
		if inv.ModInverse(new(big.Int).SetUint64(a%m), new(big.Int).SetUint64(m)) == nil {
			return 0, ErrNotCoprime
		}
		return inv.Uint64(), nil
	}
	g, x, _ := ExtGCD(int64(a%m), int64(m))
	if g != 1 {
		return 0, ErrNotCoprime
	}
	xm := x % int64(m)
	if xm < 0 {
		xm += int64(m)
	}
	return uint64(xm), nil
}

// GCDAll returns the GCD of a list of integers; GCDAll() = 0.
func GCDAll(vs ...uint64) uint64 {
	var g uint64
	for _, v := range vs {
		g = GCD(g, v)
	}
	return g
}

// PairwiseCoprime reports whether every pair in vs has GCD 1. This is
// Definition 1's precondition for the Chinese remainder theorem; the prime
// scheme guarantees it by construction because all self-labels are distinct
// primes (or, under Opt2, distinct primes plus distinct powers of two — the
// latter are NOT pairwise coprime, so Opt2 leaves are excluded from shared
// SC records).
func PairwiseCoprime(vs []uint64) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if GCD(vs[i], vs[j]) != 1 {
				return false
			}
		}
	}
	return true
}
