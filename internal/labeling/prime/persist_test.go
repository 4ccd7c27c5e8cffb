package prime

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"primelabel/internal/labeling"
	"primelabel/internal/order"
	"primelabel/internal/primes"
	"primelabel/internal/xmltree"
)

func roundTrip(t *testing.T, l *Labeling) *Labeling {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestPersistRoundTripStatic(t *testing.T) {
	for _, opts := range optionMatrix {
		doc, _ := buildTree(t)
		l, err := Scheme{Opts: opts}.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		back := roundTrip(t, l)
		if !xmltree.Equal(l.doc.Root, back.doc.Root) {
			t.Fatalf("opts %+v: tree mismatch", opts)
		}
		// Labels must match node-for-node.
		a := xmltree.Elements(l.doc.Root)
		b := xmltree.Elements(back.doc.Root)
		for i := range a {
			if l.LabelOf(a[i]).Cmp(back.LabelOf(b[i])) != 0 {
				t.Fatalf("opts %+v: label %d differs", opts, i)
			}
		}
		if err := back.Check(); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
	}
}

// The real test: mutate, persist, restore, keep mutating — allocation and
// order state must continue exactly where they stopped.
func TestPersistContinuesAfterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	opts := Options{TrackOrder: true, SCChunk: 3, PowerOfTwoLeaves: true, ReservedPrimes: -1, RecyclePrimes: true}
	doc := randomTree(rng, 30)
	l, err := Scheme{Opts: opts}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(l *Labeling, steps int) {
		for i := 0; i < steps; i++ {
			els := xmltree.Elements(l.doc.Root)
			switch rng.Intn(3) {
			case 0, 1:
				p := els[rng.Intn(len(els))]
				if _, err := l.InsertChildAt(p, rng.Intn(len(p.ElementChildren())+1), xmltree.NewElement("n")); err != nil {
					t.Fatal(err)
				}
			default:
				if len(els) < 8 {
					continue
				}
				v := els[rng.Intn(len(els))]
				if v == l.doc.Root {
					continue
				}
				if err := l.Delete(v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mutate(l, 50)
	back := roundTrip(t, l)
	// Continue mutating the restored labeling; all invariants must hold.
	mutate(back, 50)
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(back); err != nil {
		t.Fatal(err)
	}
	// The restored source must not re-issue primes already in use: fresh
	// self-labels are unique, which Check verified above; additionally the
	// issued counter must have carried over.
	if back.src.Issued() <= l.src.Issued()-50 {
		t.Errorf("issued counter regressed: %d vs %d", back.src.Issued(), l.src.Issued())
	}
}

// Equal states must marshal to equal bytes, including Opt2's per-parent
// leaf counters, which live in a map: a snapshot of the same op sequence is
// then byte-identical across runs, and a round trip reproduces it exactly.
func TestPersistBytesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := randomTree(rng, 80)
	l, err := Scheme{Opts: Options{TrackOrder: true, SCChunk: 5, PowerOfTwoLeaves: true, ReservedPrimes: -1}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.power2Count) < 4 {
		t.Fatalf("only %d Opt2 leaf counters; the test needs several", len(l.power2Count))
	}
	marshal := func(l *Labeling) []byte {
		var buf bytes.Buffer
		if err := l.Marshal(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := marshal(l)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(marshal(l), want) {
			t.Fatal("marshaling the same labeling twice gave different bytes")
		}
	}
	if !bytes.Equal(marshal(roundTrip(t, l)), want) {
		t.Fatal("a round trip changed the marshaled bytes")
	}
}

func TestPersistOrderSurvives(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Opts: Options{TrackOrder: true, SCChunk: 2}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	mid := xmltree.NewElement("mid")
	if _, err := l.InsertChildAt(ns["a"], 1, mid); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, l)
	els := xmltree.Elements(back.doc.Root)
	prev := -1
	for _, n := range els {
		if n == back.doc.Root {
			continue
		}
		o, err := back.OrderOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if o <= prev {
			t.Fatalf("restored order not increasing at %s", xmltree.PathTo(n))
		}
		prev = o
	}
}

func TestPersistTextAndAttrs(t *testing.T) {
	root := xmltree.NewElement("r")
	root.SetAttr("lang", "en")
	c := xmltree.NewElement("c")
	c.SetAttr("id", "x1")
	_ = root.AppendChild(c)
	_ = c.AppendChild(xmltree.NewText("hello <world> & more"))
	l, err := Scheme{}.New(xmltree.NewDocument(root))
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, l)
	bc := back.doc.Root.ElementChildren()[0]
	if v, _ := bc.Attr("id"); v != "x1" {
		t.Errorf("attr lost: %q", v)
	}
	if bc.Text() != "hello <world> & more" {
		t.Errorf("text lost: %q", bc.Text())
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a labeled document"),
		[]byte("PRIMELBL\x02rest"), // wrong version
		append(append([]byte{}, magic...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	for i, data := range cases {
		if _, err := Unmarshal(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncations of a valid stream must all fail, never panic or succeed
	// with an inconsistent labeling.
	doc, _ := buildTree(t)
	l, err := Scheme{Opts: Options{TrackOrder: true}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := Unmarshal(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalRejectsTamperedLabels(t *testing.T) {
	doc, _ := buildTree(t)
	l, err := Scheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip bytes throughout the payload; every mutation must either fail
	// to parse or fail the consistency check — silent acceptance of a
	// *different* labeling is only acceptable if it is itself consistent.
	rejected, accepted := 0, 0
	for i := len(magic); i < len(data); i++ {
		tampered := append([]byte(nil), data...)
		tampered[i] ^= 0x01
		back, err := Unmarshal(bytes.NewReader(tampered))
		if err != nil {
			rejected++
			continue
		}
		accepted++
		if cerr := back.Check(); cerr != nil {
			t.Fatalf("byte %d: tampered stream produced inconsistent labeling: %v", i, cerr)
		}
	}
	if rejected == 0 {
		t.Error("no tampered stream was rejected; validation seems absent")
	}
}

// TestUnmarshalRejectsStaleAllocator tampers with the allocator state a
// stream carries — the prime source's resume point, the reserved primes,
// the recycling pool, the SC table's keys — so that it would hand out a
// prime the tree already uses, or 2 under Opt2, or sets the SC table's
// spacing or high-water mark past the bound. Each stream must be rejected;
// the untampered one loads.
func TestUnmarshalRejectsStaleAllocator(t *testing.T) {
	live := func(l *Labeling) uint64 {
		return l.labels[l.doc.Root.ElementChildren()[0]].selfPrime
	}
	resume := func(l *Labeling, next uint64, reserved ...uint64) {
		_, _, issued := l.src.SnapshotState()
		l.src = primes.Resume(next, reserved, issued)
	}
	cases := []struct {
		name   string
		opts   Options
		tamper func(l *Labeling)
		want   string // substring of the error; "" for a stream that loads
	}{
		{"untampered", Options{TrackOrder: true, RecyclePrimes: true}, func(l *Labeling) {}, ""},
		{"resume point at a live prime", Options{}, func(l *Labeling) {
			resume(l, live(l))
		}, "at or above the source's next prime"},
		{"resume point past the bound", Options{}, func(l *Labeling) {
			resume(l, maxResume+1)
		}, "prime source resumes at"},
		{"resume point below every live prime", Options{}, func(l *Labeling) {
			resume(l, 2)
		}, "at or above the source's next prime"},
		{"SC high-water mark past the bound", Options{TrackOrder: true}, func(l *Labeling) {
			chunk, spacing, _, records := l.sct.Snapshot()
			l.sct, _ = order.Restore(chunk, spacing, maxResume+1, records, nil)
		}, "high-water mark"},
		{"order key another element's self-label", Options{TrackOrder: true, PowerOfTwoLeaves: true}, func(l *Labeling) {
			var leaf *nodeLabel
			for _, nl := range l.labels {
				if nl.exp > 0 {
					leaf = nl
				}
			}
			leaf.orderKey = live(l)
		}, "is also a self-label"},
		{"SC table keys an element that is gone", Options{TrackOrder: true}, func(l *Labeling) {
			els := xmltree.Elements(l.doc.Root)
			gone := els[len(els)-1]
			delete(l.labels, gone)
			gone.Detach()
		}, "SC table holds"},
		{"SC spacing past the bound", Options{TrackOrder: true}, func(l *Labeling) {
			chunk, _, nextOrd, records := l.sct.Snapshot()
			l.sct, _ = order.Restore(chunk, maxResume+1, nextOrd, records, nil)
		}, "SC table spacing"},
		{"reserved prime in use", Options{ReservedPrimes: 2}, func(l *Labeling) {
			next, _, _ := l.src.SnapshotState()
			resume(l, next, live(l))
		}, "is in use"},
		{"pooled prime in use", Options{RecyclePrimes: true}, func(l *Labeling) {
			l.free = primeHeap{live(l)}
		}, "is in use"},
		{"pooled composite", Options{RecyclePrimes: true}, func(l *Labeling) {
			l.free = primeHeap{9}
		}, "is not a prime below"},
		{"pooled prime at the resume point", Options{RecyclePrimes: true}, func(l *Labeling) {
			next, _, _ := l.src.SnapshotState()
			l.free = primeHeap{next}
		}, "is not a prime below"},
		{"prime both reserved and pooled", Options{RecyclePrimes: true}, func(l *Labeling) {
			resume(l, 1000, 997)
			l.free = primeHeap{997}
		}, "pooled twice"},
		{"Opt2 pools 2", Options{PowerOfTwoLeaves: true, RecyclePrimes: true}, func(l *Labeling) {
			l.free = primeHeap{2}
		}, "is in use"},
		{"Opt2 source resumes at 2", Options{PowerOfTwoLeaves: true}, func(l *Labeling) {
			resume(l, 2)
		}, "at or above the source's next prime"},
	}
	for _, c := range cases {
		doc, _ := buildTree(t)
		l, err := Scheme{Opts: c.opts}.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		c.tamper(l)
		var buf bytes.Buffer
		if err := l.Marshal(&buf); err != nil {
			t.Fatal(err)
		}
		_, err = Unmarshal(&buf)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestDeletedTopOrderStaysLoadable replays updates after which the SC
// table's high-water mark, raised by a shift after the member that set it
// was deleted, passes the prime source's next prime. Check must accept
// every state on the way, and the last one must survive Marshal and
// Unmarshal, as a snapshot must.
func TestDeletedTopOrderStaysLoadable(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.NewElement("r"))
	for i := 0; i < 16; i++ {
		_ = doc.Root.AppendChild(xmltree.NewElement("c"))
	}
	l, err := Scheme{Opts: Options{TrackOrder: true, OrderSpacing: 64}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if err := l.Check(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	children := doc.Root.ElementChildren()
	if err := l.Delete(children[15]); err != nil {
		t.Fatal(err)
	}
	check("deleting the last child")
	insert := func() {
		t.Helper()
		if _, err := l.InsertChildAt(doc.Root, 14, xmltree.NewElement("n")); err != nil {
			t.Fatal(err)
		}
		check("inserting at index 14")
	}
	insert()
	if err := l.Delete(children[14]); err != nil {
		t.Fatal(err)
	}
	check("deleting the fifteenth child")
	for i := 0; i < 6; i++ {
		insert()
	}
	next, _, _ := l.src.SnapshotState()
	if top := l.sct.MaxOrder(); uint64(top) < next {
		t.Fatalf("high-water mark %d stays below the next prime %d; the replay no longer reaches the state it pins", top, next)
	}
	back := roundTrip(t, l)
	if err := labeling.CheckAgainstTree(back); err != nil {
		t.Fatal(err)
	}
}

// TestFarHighWaterMarkAppends loads a stream whose SC high-water mark sits
// at the bound and appends under the root: the new element's key, above
// the mark, is drawn without sieving every number below it. New refuses
// an order spacing past the bound, and orders that reach past it.
func TestFarHighWaterMarkAppends(t *testing.T) {
	doc, _ := buildTree(t)
	l, err := Scheme{Opts: Options{TrackOrder: true}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	chunk, spacing, _, records := l.sct.Snapshot()
	if l.sct, err = order.Restore(chunk, spacing, maxResume, records, l.src.NextAbove); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, l)
	root := back.doc.Root
	if _, err := back.InsertChildAt(root, len(root.Children), xmltree.NewElement("n")); err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	for _, spacing := range []int{maxResume + 1, maxResume / 2} {
		fresh, _ := buildTree(t)
		_, err := Scheme{Opts: Options{TrackOrder: true, OrderSpacing: spacing}}.New(fresh)
		if err == nil || !strings.Contains(err.Error(), "past") {
			t.Errorf("New with order spacing %d: err %v, want one past the bound", spacing, err)
		}
	}
}

// goldenMarshalOptions are the option sets testdata/marshal-v1 pins: file
// i.bin holds the bytes goldenStorm's labeling under option set i marshaled
// to before the codec wrote through internal/labeling/wire.
var goldenMarshalOptions = []Options{
	{},
	{ReservedPrimes: -1, PowerOfTwoLeaves: true},
	{TrackOrder: true},
	{TrackOrder: true, SCChunk: 3, OrderSpacing: 8, PowerOfTwoLeaves: true, ReservedPrimes: 4},
	{TrackOrder: true, RecyclePrimes: true, PowerOfTwoLeaves: true, Power2Threshold: 2},
}

// goldenStorm labels a seeded 60-element tree carrying text and attributes
// under opts, then applies a seeded 60-op storm of inserts, wraps and leaf
// deletes.
func goldenStorm(t *testing.T, opts Options) *Labeling {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	doc := randomTree(rng, 60)
	for i, n := range xmltree.Elements(doc.Root) {
		if i%7 == 3 {
			n.SetAttr("id", fmt.Sprint("n", i))
		}
		if i%5 == 1 {
			_ = n.AppendChild(xmltree.NewText(fmt.Sprint("text ", i)))
		}
	}
	l, err := Scheme{Opts: opts}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		els := xmltree.Elements(l.doc.Root)
		v := els[1+rng.Intn(len(els)-1)]
		switch r := rng.Intn(10); {
		case r < 6:
			_, err = l.InsertChildAt(v, rng.Intn(len(v.ElementChildren())+1), xmltree.NewElement("ins"))
		case r < 8 || !v.IsLeaf():
			_, err = l.WrapNode(v, xmltree.NewElement("wrap"))
		default:
			err = l.Delete(v)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return l
}

// TestMarshalMatchesGolden holds Marshal to the bytes in testdata/marshal-v1
// and checks that each golden stream restores and re-marshals unchanged.
func TestMarshalMatchesGolden(t *testing.T) {
	for i, opts := range goldenMarshalOptions {
		var got bytes.Buffer
		if err := goldenStorm(t, opts).Marshal(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "marshal-v1", fmt.Sprintf("%d.bin", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("options %+v: Marshal wrote %d bytes differing from the %d golden bytes", opts, got.Len(), len(want))
		}
		back, err := Unmarshal(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("options %+v: golden stream: %v", opts, err)
		}
		var again bytes.Buffer
		if err := back.Marshal(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Errorf("options %+v: golden stream re-marshals differently", opts)
		}
	}
}
