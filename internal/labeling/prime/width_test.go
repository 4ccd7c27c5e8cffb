package prime

import (
	"math/rand"
	"testing"

	"primelabel/internal/xmltree"
)

// walkMaxLabelBits is the label-width oracle: the widest live label found
// by recomputing every label's bit length from its big.Int.
func walkMaxLabelBits(l *Labeling) int {
	max := 0
	for _, nl := range l.labels {
		if b := nl.label.BitLen(); b > max {
			max = b
		}
	}
	return max
}

// widthOptions covers every option that changes how labels are set or
// dropped: Opt1's reserved pool, Opt2's power-of-two leaves (and their
// conversion to primes when a leaf gains a child), order tracking, sparse
// order spacing, and prime recycling.
var widthOptions = []Options{
	{},
	{ReservedPrimes: -1},
	{PowerOfTwoLeaves: true},
	{PowerOfTwoLeaves: true, Power2Threshold: 3, ReservedPrimes: 4},
	{TrackOrder: true},
	{TrackOrder: true, OrderSpacing: 16, SCChunk: 3},
	{RecyclePrimes: true, PowerOfTwoLeaves: true},
	{RecyclePrimes: true, TrackOrder: true, OrderSpacing: 4, ReservedPrimes: -1},
}

// TestMaxLabelBitsTracksStorm drives insert, wrap, delete and recycle
// storms and holds the maintained width to a full walk after every op, and
// after a Marshal/Unmarshal round trip that the storm then continues on.
func TestMaxLabelBitsTracksStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, opts := range widthOptions {
		doc := randomTree(rng, 24)
		l, err := Scheme{Opts: opts}.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		conversions := 0
		storm := func(phase string, steps int) {
			for step := 0; step < steps; step++ {
				live := xmltree.Elements(doc.Root)
				switch op := rng.Intn(10); {
				case op < 5: // insert, often under a leaf (Opt2 conversion)
					p := live[rng.Intn(len(live))]
					if p.IsLeaf() && l.labels[p].exp > 0 {
						conversions++
					}
					idx := rng.Intn(len(p.ElementChildren()) + 1)
					if _, err := l.InsertChildAt(p, idx, xmltree.NewElement("n")); err != nil {
						t.Fatalf("opts %+v %s step %d insert: %v", opts, phase, step, err)
					}
				case op < 7: // wrap
					target := live[rng.Intn(len(live))]
					if target == doc.Root {
						continue
					}
					if _, err := l.WrapNode(target, xmltree.NewElement("w")); err != nil {
						t.Fatalf("opts %+v %s step %d wrap: %v", opts, phase, step, err)
					}
				default: // delete, freeing primes for recycling
					if len(live) < 6 {
						continue
					}
					victim := live[1+rng.Intn(len(live)-1)]
					if err := l.Delete(victim); err != nil {
						t.Fatalf("opts %+v %s step %d delete: %v", opts, phase, step, err)
					}
				}
				if got, want := l.MaxLabelBits(), walkMaxLabelBits(l); got != want {
					t.Fatalf("opts %+v %s step %d: MaxLabelBits = %d, walk %d", opts, phase, step, got, want)
				}
				if err := l.Check(); err != nil {
					t.Fatalf("opts %+v %s step %d: %v", opts, phase, step, err)
				}
			}
		}
		storm("storm", 150)
		l = roundTrip(t, l)
		doc = l.Doc()
		if got, want := l.MaxLabelBits(), walkMaxLabelBits(l); got != want {
			t.Fatalf("opts %+v after Unmarshal: MaxLabelBits = %d, walk %d", opts, got, want)
		}
		storm("after unmarshal", 60)
		if opts.PowerOfTwoLeaves && conversions == 0 {
			t.Errorf("opts %+v: storm never converted a power-of-two leaf", opts)
		}
	}
}

// TestMaxLabelBitsShrinksOnDelete pins the trimming of empty top buckets:
// deleting the only widest label drops MaxLabelBits to the next width.
func TestMaxLabelBitsShrinksOnDelete(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Labels: r=1, a=2, b=3, c=2·5=10, d=2·7=14 → widest 4 bits (c, d).
	deep := xmltree.NewElement("e")
	if _, err := l.InsertChildAt(ns["d"], 0, deep); err != nil {
		t.Fatal(err)
	}
	widest := l.MaxLabelBits()
	if widest <= 4 || widest != walkMaxLabelBits(l) {
		t.Fatalf("after deep insert MaxLabelBits = %d, walk %d", widest, walkMaxLabelBits(l))
	}
	if err := l.Delete(deep); err != nil {
		t.Fatal(err)
	}
	if got := l.MaxLabelBits(); got != 4 {
		t.Fatalf("after deleting the widest label MaxLabelBits = %d, want 4", got)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	l.bitCount[2]++
	if err := l.Check(); err == nil {
		t.Fatal("Check accepted a label-size histogram that disagrees with a recount")
	}
}

// TestLabelBitsReadsCachedWidth pins that LabelBits answers from the width
// cached when the label was set, which Check holds equal to the label's
// actual bit length.
func TestLabelBitsReadsCachedWidth(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Opts: Options{PowerOfTwoLeaves: true}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range xmltree.Elements(doc.Root) {
		if got, want := l.LabelBits(n), l.LabelOf(n).BitLen(); got != want {
			t.Errorf("%s: LabelBits = %d, label has %d bits", xmltree.PathTo(n), got, want)
		}
	}
	l.labels[ns["c"]].bits = 99
	if got := l.LabelBits(ns["c"]); got != 99 {
		t.Fatalf("LabelBits = %d, want the cached 99", got)
	}
	if err := l.Check(); err == nil {
		t.Fatal("Check accepted a cached width that disagrees with the label")
	}
}
