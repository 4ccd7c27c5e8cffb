package numtheory

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Congruence is one equation x ≡ Rem (mod Mod) in a simultaneous system.
type Congruence struct {
	Mod uint64 // modulus, must be pairwise coprime with all others
	Rem uint64 // remainder, reduced mod Mod by the solvers
}

// CRT solves the simultaneous congruence system x ≡ cs[i].Rem (mod
// cs[i].Mod) and returns the unique solution x in [0, C) together with
// C = ∏ Mod. This is Theorem 1 of the paper: the SC value for a list of
// (self-label, order-number) pairs.
//
// It combines the congruences pairwise with extended-GCD arithmetic over
// math/big, so the product of moduli may exceed 64 bits. It returns
// ErrNotCoprime if the moduli are not pairwise coprime (for distinct prime
// moduli this cannot happen).
func CRT(cs []Congruence) (x, mod *big.Int, err error) {
	x = big.NewInt(0)
	mod = big.NewInt(1)
	var (
		m, r, g, p, q, diff, tmp big.Int
	)
	for _, c := range cs {
		if c.Mod == 0 {
			return nil, nil, fmt.Errorf("numtheory: zero modulus in congruence system")
		}
		m.SetUint64(c.Mod)
		r.SetUint64(c.Rem % c.Mod)
		// Solve x' ≡ x (mod mod), x' ≡ r (mod m).
		g.GCD(&p, &q, mod, &m)
		if g.Cmp(bigOne) != 0 {
			// Only solvable if (r - x) divisible by g; the labeling scheme
			// never produces that case, so reject outright.
			return nil, nil, ErrNotCoprime
		}
		// x' = x + mod * p * (r - x) mod (mod*m)
		diff.Sub(&r, x)
		tmp.Mul(mod, &p)
		tmp.Mul(&tmp, &diff)
		x.Add(x, &tmp)
		mod.Mul(mod, &m)
		x.Mod(x, mod)
	}
	return x, mod, nil
}

var bigOne = big.NewInt(1)

// CRTGarner solves the same system using Garner's mixed-radix algorithm,
// which performs all per-step arithmetic modulo single uint64 moduli and
// only assembles the big result at the end. For many small prime moduli it
// is substantially faster than pairwise big.Int combination; the ablation
// benchmark BenchmarkAblationCRT compares the two.
func CRTGarner(cs []Congruence) (x, mod *big.Int, err error) {
	n := len(cs)
	// Mixed-radix digits: v[i] so that
	// x = v[0] + v[1]*m[0] + v[2]*m[0]*m[1] + ...
	v := make([]uint64, n)
	for i := 0; i < n; i++ {
		mi := cs[i].Mod
		if mi == 0 {
			return nil, nil, fmt.Errorf("numtheory: zero modulus in congruence system")
		}
		// Evaluate current partial x modulo mi.
		cur := uint64(0)
		coeff := uint64(1) % mi
		for j := 0; j < i; j++ {
			cur = addmod64(cur, mulmod64(v[j], coeff, mi), mi)
			coeff = mulmod64(coeff, cs[j].Mod%mi, mi)
		}
		diff := submod64(cs[i].Rem%mi, cur, mi)
		inv, ierr := ModInverse(prodMod(cs[:i], mi), mi)
		if ierr != nil {
			return nil, nil, ErrNotCoprime
		}
		v[i] = mulmod64(diff, inv, mi)
	}
	// Assemble.
	x = big.NewInt(0)
	mod = big.NewInt(1)
	var term, m big.Int
	for i := 0; i < n; i++ {
		term.SetUint64(v[i])
		term.Mul(&term, mod)
		x.Add(x, &term)
		m.SetUint64(cs[i].Mod)
		mod.Mul(mod, &m)
	}
	return x, mod, nil
}

// addmod64 returns (a + b) mod m for a, b < m, without overflowing when m
// is 2⁶³ or more.
func addmod64(a, b, m uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 || s >= m {
		s -= m
	}
	return s
}

// submod64 returns (a − b) mod m for a, b < m.
func submod64(a, b, m uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + (m - b)
}

// prodMod returns (∏ cs[j].Mod) mod m.
func prodMod(cs []Congruence, m uint64) uint64 {
	p := uint64(1) % m
	for _, c := range cs {
		p = mulmod64(p, c.Mod%m, m)
	}
	return p
}

// Verify reports whether x satisfies every congruence in cs. Used by tests
// and by the SC table's internal consistency checks.
func Verify(x *big.Int, cs []Congruence) bool {
	var m, r big.Int
	for _, c := range cs {
		m.SetUint64(c.Mod)
		r.Mod(x, &m)
		if r.Uint64() != c.Rem%c.Mod {
			return false
		}
	}
	return true
}

// CRTExtend adds the congruence c to a solved system in place: given x in
// [0, mod) solving a system whose moduli multiply to mod, it makes x the
// solution in [0, mod·c.Mod) of that system plus x ≡ c.Rem (mod c.Mod) and
// multiplies mod by c.Mod. This is one step of Garner's algorithm,
//
//	x += mod · ((c.Rem − x mod c.Mod) · (mod mod c.Mod)⁻¹ mod c.Mod)
//
// so adding a member to a k-member system costs O(k) word operations instead
// of CRTGarner's O(k²) re-solve. It returns ErrNotCoprime, leaving x and mod
// unchanged, if c.Mod shares a factor with mod.
func CRTExtend(x, mod *big.Int, c Congruence) error {
	m := c.Mod
	if m == 0 {
		return fmt.Errorf("numtheory: zero modulus in congruence system")
	}
	inv, err := ModInverse(RemUint64(mod, m), m)
	if err != nil {
		return ErrNotCoprime
	}
	r, cur := c.Rem%m, RemUint64(x, m)
	diff := r - cur
	if r < cur {
		diff += m // wraps back into [0, m)
	}
	var w, step big.Int
	x.Add(x, step.Mul(mod, w.SetUint64(mulmod64(diff, inv, m))))
	mod.Set(step.Mul(mod, w.SetUint64(m)))
	return nil
}

// RemUint64 returns x mod m (the Euclidean remainder, as big.Int.Mod gives)
// for a big x and uint64 m — the paper's order-number lookup
// `SC mod self-label`. It folds x's words with 128-by-64-bit division and
// allocates nothing. m must be nonzero.
func RemUint64(x *big.Int, m uint64) uint64 {
	var r uint64
	ws := x.Bits()
	for i := len(ws) - 1; i >= 0; i-- {
		w := uint64(ws[i])
		if bits.UintSize == 64 {
			_, r = bits.Div64(r, w, m)
		} else {
			// 32-bit words: r·2³² + w, split across the 128-bit dividend.
			_, r = bits.Div64(r>>32, r<<32|w, m)
		}
	}
	if x.Sign() < 0 && r != 0 {
		r = m - r
	}
	return r
}
