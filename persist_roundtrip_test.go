package primelabel

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveRoundTripAllSchemes is the regression matrix behind the
// examples/persistence walkthrough: every serving scheme — prime plus the
// interval, XRel, prefix, Dewey and float baselines — must survive
// Save/LoadSaved after update churn with identical labels, identical stats,
// and the ability to keep absorbing updates. The churn matters: it leaves
// history-dependent allocation state (interval gaps, spent prefix codes,
// Dewey component gaps, float midpoints, consumed primes) that relabeling
// from the XML could never reproduce.
func TestSaveRoundTripAllSchemes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"prime", Config{Scheme: Prime, TrackOrder: true, PowerOfTwoLeaves: true}},
		{"prime-recycle", Config{Scheme: Prime, TrackOrder: true, RecyclePrimes: true, OrderSpacing: 8}},
		{"interval", Config{Scheme: Interval}},
		{"xrel", Config{Scheme: XRel}},
		{"prefix-1", Config{Scheme: Prefix1}},
		{"prefix-2", Config{Scheme: Prefix2, OrderPreserving: true}},
		{"dewey", Config{Scheme: Dewey}},
		{"float", Config{Scheme: Float}},
		{"compact", Config{Scheme: Compact}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := LoadString(libraryXML, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Update churn: inserts at both ends, a wrapper, a delete.
			books := doc.Find("book")
			if _, _, err := doc.InsertAfter(books[0], "book"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := doc.InsertBefore(books[2], "book"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := doc.WrapParent(books[1], "featured"); err != nil {
				t.Fatal(err)
			}
			if err := doc.Delete(books[2]); err != nil {
				t.Fatal(err)
			}

			var buf strings.Builder
			if err := doc.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			back, err := LoadSaved(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatalf("LoadSaved: %v", err)
			}
			if back.SchemeName() != doc.SchemeName() {
				t.Fatalf("scheme %q, want %q", back.SchemeName(), doc.SchemeName())
			}
			if back.Stats() != doc.Stats() {
				t.Errorf("stats differ: %+v vs %+v", back.Stats(), doc.Stats())
			}
			origSecs, backSecs := doc.Find("section"), back.Find("section")
			origBooks, backBooks := doc.Find("book"), back.Find("book")
			if len(backBooks) != len(origBooks) || len(backSecs) != len(origSecs) {
				t.Fatalf("element counts differ after restore")
			}
			for i := range origBooks {
				if got, want := back.Label(backBooks[i]), doc.Label(origBooks[i]); got != want {
					t.Errorf("book %d label %q, want %q", i, got, want)
				}
			}
			for i := range origSecs {
				if got, want := back.Label(backSecs[i]), doc.Label(origSecs[i]); got != want {
					t.Errorf("section %d label %q, want %q", i, got, want)
				}
			}
			if err := back.Validate(); err != nil {
				t.Errorf("Validate after restore: %v", err)
			}
			// The restored document keeps absorbing updates the same way the
			// original does — the whole point of persisting allocation state.
			n1, c1, err := doc.InsertAfter(origBooks[0], "book")
			if err != nil {
				t.Fatal(err)
			}
			n2, c2, err := back.InsertAfter(backBooks[0], "book")
			if err != nil {
				t.Fatal(err)
			}
			if c1 != c2 {
				t.Errorf("post-restore insert relabeled %d, original %d", c2, c1)
			}
			if doc.Label(n1) != back.Label(n2) {
				t.Errorf("post-restore insert label %q, original %q", back.Label(n2), doc.Label(n1))
			}
		})
	}
}

// TestSaveRoundTripDoubleRestore saves, restores, saves again and compares
// streams byte for byte: restoration must be lossless, not merely
// equivalent.
func TestSaveRoundTripDoubleRestore(t *testing.T) {
	for _, cfg := range []Config{
		{Scheme: Prime, TrackOrder: true},
		{Scheme: Interval},
		{Scheme: Prefix2, OrderPreserving: true},
		{Scheme: Dewey},
		{Scheme: Float},
	} {
		doc, err := LoadString(libraryXML, cfg)
		if err != nil {
			t.Fatal(err)
		}
		books := doc.Find("book")
		if _, _, err := doc.InsertAfter(books[0], "book"); err != nil {
			t.Fatal(err)
		}
		var first strings.Builder
		if err := doc.Save(&first); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSaved(strings.NewReader(first.String()))
		if err != nil {
			t.Fatal(err)
		}
		var second strings.Builder
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Errorf("%s: save stream changed after a restore cycle", cfg.Scheme)
		}
	}
}

// TestLoadSavedBarePrimeStream loads bare prime streams, which carry no
// codec header: internal/labeling/prime's golden Marshal output, written
// before that codec moved onto internal/labeling/wire. Each loads as a
// prime document that validates, answers queries and takes updates.
func TestLoadSavedBarePrimeStream(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("internal", "labeling", "prime", "testdata", "marshal-v1", "*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden streams: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := LoadSaved(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if doc.cfg.Scheme != Prime {
			t.Errorf("%s: loaded as %q", f, doc.cfg.Scheme)
		}
		if err := doc.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		hits, err := doc.Query("//*")
		if err != nil || len(hits) != doc.Stats().Elements {
			t.Errorf("%s: //* gave %d of %d elements, err %v", f, len(hits), doc.Stats().Elements, err)
		}
		if _, _, err := doc.InsertChild(doc.Root(), 0, "n"); err != nil {
			t.Errorf("%s: insert after load: %v", f, err)
		}
	}
}
