package numtheory

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {17, 13, 1},
		{100, 75, 25}, {1 << 40, 1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestExtGCDBezout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := rng.Int63n(1 << 30)
		b := rng.Int63n(1 << 30)
		g, x, y := ExtGCD(a, b)
		if a*x+b*y != g {
			t.Fatalf("ExtGCD(%d,%d): %d*%d + %d*%d != %d", a, b, a, x, b, y, g)
		}
		if uint64(g) != GCD(uint64(a), uint64(b)) {
			t.Fatalf("ExtGCD gcd %d != GCD %d", g, GCD(uint64(a), uint64(b)))
		}
	}
}

func TestModInverse(t *testing.T) {
	for _, m := range []uint64{2, 3, 5, 7, 97, 1000003} {
		for a := uint64(1); a < m && a < 200; a++ {
			inv, err := ModInverse(a, m)
			if err != nil {
				t.Fatalf("ModInverse(%d,%d): %v", a, m, err)
			}
			if mulmod64(a, inv, m) != 1%m {
				t.Fatalf("ModInverse(%d,%d) = %d, not an inverse", a, m, inv)
			}
		}
	}
	if _, err := ModInverse(4, 8); err != ErrNotCoprime {
		t.Errorf("ModInverse(4,8) err = %v, want ErrNotCoprime", err)
	}
	if _, err := ModInverse(3, 0); err == nil {
		t.Error("ModInverse(3,0) should fail")
	}
	if inv, err := ModInverse(5, 1); err != nil || inv != 0 {
		t.Errorf("ModInverse(5,1) = %d,%v; want 0,nil", inv, err)
	}
}

func TestPairwiseCoprime(t *testing.T) {
	if !PairwiseCoprime([]uint64{3, 5, 7, 11}) {
		t.Error("distinct primes should be pairwise coprime")
	}
	if PairwiseCoprime([]uint64{3, 5, 9}) {
		t.Error("3 and 9 are not coprime")
	}
	if !PairwiseCoprime(nil) || !PairwiseCoprime([]uint64{42}) {
		t.Error("empty/singleton lists are trivially pairwise coprime")
	}
}

// The paper's worked example (Section 4.1): P = [3, 4, 5], I = [1, 2, 3]
// gives x = 58.
func TestCRTPaperExample(t *testing.T) {
	cs := []Congruence{{3, 1}, {4, 2}, {5, 3}}
	for name, solve := range map[string]func([]Congruence) (*big.Int, *big.Int, error){
		"pairwise": CRT, "garner": CRTGarner, "euler": EulerCRT,
	} {
		x, mod, err := solve(cs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.Int64() != 58 {
			t.Errorf("%s: x = %v, want 58", name, x)
		}
		if mod.Int64() != 60 {
			t.Errorf("%s: mod = %v, want 60", name, mod)
		}
	}
}

// The paper's Figure 9 example: self-labels [2,3,5,7,11,13] with order
// numbers [1,2,3,4,5,6] gives SC = 29243.
func TestCRTFigure9(t *testing.T) {
	cs := []Congruence{{2, 1}, {3, 2}, {5, 3}, {7, 4}, {11, 5}, {13, 6}}
	x, _, err := CRT(cs)
	if err != nil {
		t.Fatal(err)
	}
	if x.Int64() != 29243 {
		t.Errorf("SC = %v, want 29243", x)
	}
	// And the lookup the paper demonstrates: 29243 mod 5 = 3.
	if RemUint64(x, 5) != 3 {
		t.Errorf("SC mod 5 = %d, want 3", RemUint64(x, 5))
	}
}

// The paper's Figure 10 example: first five nodes give SC = 1523.
func TestCRTFigure10(t *testing.T) {
	cs := []Congruence{{2, 1}, {3, 2}, {5, 3}, {7, 4}, {11, 5}}
	x, _, err := CRTGarner(cs)
	if err != nil {
		t.Fatal(err)
	}
	if x.Int64() != 1523 {
		t.Errorf("SC = %v, want 1523", x)
	}
}

// The paper's Figure 12 update example: {13:7, 17:3} and the bumped first
// record {2:1, 3:2, 5:4, 7:5, 11:6}.
func TestCRTFigure12Update(t *testing.T) {
	x, _, err := CRT([]Congruence{{13, 7}, {17, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if RemUint64(x, 13) != 7 || RemUint64(x, 17) != 3 {
		t.Errorf("updated record SC %v does not satisfy the congruences", x)
	}
	y, _, err := CRT([]Congruence{{2, 1}, {3, 2}, {5, 4}, {7, 5}, {11, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Congruence{{2, 1}, {3, 2}, {5, 4}, {7, 5}, {11, 6}} {
		if RemUint64(y, c.Mod) != c.Rem {
			t.Errorf("SC mod %d = %d, want %d", c.Mod, RemUint64(y, c.Mod), c.Rem)
		}
	}
}

func TestCRTNotCoprime(t *testing.T) {
	cs := []Congruence{{4, 1}, {6, 3}}
	if _, _, err := CRT(cs); err != ErrNotCoprime {
		t.Errorf("CRT with moduli 4,6: err = %v, want ErrNotCoprime", err)
	}
	if _, _, err := CRTGarner(cs); err != ErrNotCoprime {
		t.Errorf("CRTGarner with moduli 4,6: err = %v, want ErrNotCoprime", err)
	}
}

func TestCRTEmpty(t *testing.T) {
	x, mod, err := CRT(nil)
	if err != nil || x.Sign() != 0 || mod.Int64() != 1 {
		t.Errorf("CRT(nil) = %v,%v,%v; want 0,1,nil", x, mod, err)
	}
}

func TestCRTZeroModulus(t *testing.T) {
	if _, _, err := CRT([]Congruence{{0, 1}}); err == nil {
		t.Error("CRT with zero modulus should fail")
	}
	if _, _, err := CRTGarner([]Congruence{{0, 1}}); err == nil {
		t.Error("CRTGarner with zero modulus should fail")
	}
}

func TestCRTSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	primePool := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(len(primePool))
		perm := rng.Perm(len(primePool))[:n]
		cs := make([]Congruence, n)
		for i, pi := range perm {
			p := primePool[pi]
			cs[i] = Congruence{Mod: p, Rem: uint64(rng.Intn(int(p)))}
		}
		a, am, err1 := CRT(cs)
		b, bm, err2 := CRTGarner(cs)
		c, cm, err3 := EulerCRT(cs)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("trial %d: errors %v %v %v", trial, err1, err2, err3)
		}
		if a.Cmp(b) != 0 || a.Cmp(c) != 0 || am.Cmp(bm) != 0 || am.Cmp(cm) != 0 {
			t.Fatalf("trial %d: solvers disagree: %v %v %v", trial, a, b, c)
		}
		if !Verify(a, cs) {
			t.Fatalf("trial %d: solution does not verify", trial)
		}
		if a.Sign() < 0 || a.Cmp(am) >= 0 {
			t.Fatalf("trial %d: solution %v not in [0, %v)", trial, a, am)
		}
	}
}

func TestTotientKnownValues(t *testing.T) {
	cases := map[uint64]uint64{
		0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 9: 6, 10: 4, 12: 4,
		36: 12, 97: 96, 100: 40, 1000: 400, 104729: 104728,
	}
	for n, want := range cases {
		if got := Totient(n); got != want {
			t.Errorf("φ(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTotientMultiplicative(t *testing.T) {
	// φ(mn) = φ(m)φ(n) for coprime m, n.
	f := func(a, b uint16) bool {
		m, n := uint64(a)%500+2, uint64(b)%500+2
		if GCD(m, n) != 1 {
			return true
		}
		return Totient(m*n) == Totient(m)*Totient(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCRTUniqueSolution(t *testing.T) {
	// Property: the CRT solution is the unique value in [0, C) satisfying
	// all congruences — verified by brute force over small systems.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		cs := []Congruence{
			{3, uint64(rng.Intn(3))},
			{5, uint64(rng.Intn(5))},
			{7, uint64(rng.Intn(7))},
		}
		x, mod, err := CRT(cs)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for v := int64(0); v < mod.Int64(); v++ {
			ok := true
			for _, c := range cs {
				if uint64(v)%c.Mod != c.Rem {
					ok = false
					break
				}
			}
			if ok {
				count++
				if v != x.Int64() {
					t.Fatalf("brute force found %d, CRT found %v", v, x)
				}
			}
		}
		if count != 1 {
			t.Fatalf("expected exactly one solution, found %d", count)
		}
	}
}

// CRTExtend must land on exactly the canonical solution CRTGarner computes
// for the grown system, one congruence at a time, from the empty system
// (x = 0 mod 1) up.
func TestCRTExtendMatchesGarner(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	primePool := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 65537, 1000003, 2147483647, 4611686018427387847}
	for trial := 0; trial < 300; trial++ {
		perm := rng.Perm(len(primePool))
		x, mod := new(big.Int), big.NewInt(1)
		var cs []Congruence
		for _, pi := range perm[:1+rng.Intn(len(perm))] {
			p := primePool[pi]
			c := Congruence{Mod: p, Rem: rng.Uint64()} // Rem >= Mod is reduced
			cs = append(cs, c)
			if err := CRTExtend(x, mod, c); err != nil {
				t.Fatalf("trial %d: CRTExtend(%v): %v", trial, c, err)
			}
			want, wantMod, err := CRTGarner(cs)
			if err != nil {
				t.Fatal(err)
			}
			if x.Cmp(want) != 0 || mod.Cmp(wantMod) != 0 {
				t.Fatalf("trial %d: CRTExtend gave (%v mod %v), CRTGarner (%v mod %v)", trial, x, mod, want, wantMod)
			}
		}
	}
}

func TestCRTExtendRejectsSharedFactor(t *testing.T) {
	x, mod := big.NewInt(3), big.NewInt(10)
	for _, c := range []Congruence{{Mod: 4, Rem: 1}, {Mod: 5, Rem: 0}, {Mod: 0, Rem: 1}} {
		if err := CRTExtend(x, mod, c); err == nil {
			t.Errorf("CRTExtend(3 mod 10, %v) succeeded, want an error", c)
		}
		if x.Int64() != 3 || mod.Int64() != 10 {
			t.Fatalf("failed CRTExtend(%v) changed the system to %v mod %v", c, x, mod)
		}
	}
}

// RemUint64 folds the words of x itself; it must agree with big.Int.Mod on
// every width, sign and modulus, including x = 0, m = 2 and m near 2⁶⁴.
func TestRemUint64MatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mods := []uint64{1, 2, 3, 97, 1 << 32, 1<<32 + 15, 1<<63 - 25, 1 << 63, 1<<64 - 59, 1<<64 - 1}
	for i := 0; i < 200; i++ {
		mods = append(mods, 1+rng.Uint64()>>uint(rng.Intn(64)))
	}
	for trial := 0; trial < 400; trial++ {
		x := new(big.Int)
		if bitLen := rng.Intn(300); bitLen > 0 {
			x.Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bitLen)))
		}
		if trial%4 == 3 {
			x.Neg(x)
		}
		for _, m := range mods {
			want := new(big.Int).Mod(x, new(big.Int).SetUint64(m)).Uint64()
			if got := RemUint64(x, m); got != want {
				t.Fatalf("RemUint64(%v, %d) = %d, want %d", x, m, got, want)
			}
		}
	}
}

func TestRemUint64AllocFree(t *testing.T) {
	x, _ := new(big.Int).SetString("123456789012345678901234567890123456789", 10)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += RemUint64(x, 1000003) }); n != 0 {
		t.Errorf("RemUint64 allocates %.0f times per call, want 0", n)
	}
	_ = sink
}

// TestModInverseWideModuli covers moduli of 2⁶³ and more, which do not fit
// the int64 extended GCD: the inverse must still be exact, and a CRT
// system over such a modulus must verify.
func TestModInverseWideModuli(t *testing.T) {
	const m = 18446744073709551557 // the largest prime below 2⁶⁴
	inv, err := ModInverse(3, m)
	if err != nil {
		t.Fatal(err)
	}
	if mulmod64(3, inv, m) != 1 {
		t.Errorf("ModInverse(3, %d) = %d, not an inverse", uint64(m), inv)
	}
	cs := []Congruence{{Mod: 3, Rem: 1}, {Mod: m, Rem: 5}}
	x, _, err := CRTGarner(cs)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(x, cs) {
		t.Errorf("CRTGarner(%v) = %v, which does not verify", cs, x)
	}
	if _, err := ModInverse(6, 1<<63+2); !errors.Is(err, ErrNotCoprime) {
		t.Errorf("ModInverse(6, 2⁶³+2) err = %v, want ErrNotCoprime", err)
	}
	if inv, err := ModInverse(1<<64-1, 1); err != nil || inv != 0 {
		t.Errorf("ModInverse(2⁶⁴-1, 1) = %d, %v; want 0, nil", inv, err)
	}
}

// TestModInverseMatchesBig checks random a and m of every bit width against
// math/big: the same inverse when one exists, ErrNotCoprime when not.
func TestModInverseMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		m := rng.Uint64() >> uint(rng.Intn(64))
		a := rng.Uint64() >> uint(rng.Intn(64))
		if m == 0 {
			continue
		}
		got, err := ModInverse(a, m)
		var want big.Int
		if m == 1 {
			if err != nil || got != 0 {
				t.Fatalf("ModInverse(%d, 1) = %d, %v; want 0, nil", a, got, err)
			}
			continue
		}
		if want.ModInverse(new(big.Int).SetUint64(a), new(big.Int).SetUint64(m)) == nil {
			if !errors.Is(err, ErrNotCoprime) {
				t.Fatalf("ModInverse(%d, %d) = %d, %v; want ErrNotCoprime", a, m, got, err)
			}
			continue
		}
		if err != nil || got != want.Uint64() {
			t.Fatalf("ModInverse(%d, %d) = %d, %v; want %v", a, m, got, err, &want)
		}
	}
}

// TestCRTGarnerWideModuli holds CRTGarner to the math/big CRT on systems
// that mix small and 64-bit prime moduli.
func TestCRTGarnerWideModuli(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wide := []uint64{18446744073709551557, 18446744073709551533, 9223372036854775783, 4294967291}
	small := []uint64{3, 5, 7, 11, 13}
	for trial := 0; trial < 500; trial++ {
		var cs []Congruence
		for _, pool := range [][]uint64{wide, small} {
			for _, i := range rng.Perm(len(pool))[:1+rng.Intn(2)] {
				cs = append(cs, Congruence{Mod: pool[i], Rem: rng.Uint64() % pool[i]})
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		want, wantMod, err := CRT(cs)
		if err != nil {
			t.Fatal(err)
		}
		got, gotMod, err := CRTGarner(cs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 || gotMod.Cmp(wantMod) != 0 {
			t.Fatalf("CRTGarner(%v) = %v mod %v, CRT gives %v mod %v", cs, got, gotMod, want, wantMod)
		}
	}
}
