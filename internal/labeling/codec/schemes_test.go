package codec

import (
	"slices"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmlparse"
)

// TestSchemeRegistry pins the registered names in their documented order,
// checks that each builds a scheme that labels a document and renders its
// labels, that the empty name is the prime scheme with the given options,
// and that an unknown name is refused.
func TestSchemeRegistry(t *testing.T) {
	want := []string{
		"prime", "prime-bottomup", "prime-decomposed",
		"interval", "xrel", "prefix-1", "prefix-2", "dewey", "float", "compact",
	}
	if names := SchemeNames(); !slices.Equal(names, want) {
		t.Fatalf("SchemeNames() = %v, want %v", names, want)
	}
	doc, err := xmlparse.ParseString("<a><b/><c><d/></c></a>")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		s, ok := NewScheme(name, Options{})
		if !ok {
			t.Fatalf("NewScheme(%q) refused a registered name", name)
		}
		lab, err := s.Label(doc.Clone())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		root := lab.Doc().Root
		if LabelString(lab, root) == "" || LabelString(lab, root.ElementChildren()[1]) == "" {
			t.Errorf("%s: empty label rendering", name)
		}
	}
	if s, ok := NewScheme("", Options{Prime: prime.Options{TrackOrder: true}}); !ok || s.(prime.Scheme).Opts != (prime.Options{TrackOrder: true}) {
		t.Errorf(`NewScheme("") = %#v, %v; want prime with the given options`, s, ok)
	}
	if s, ok := NewScheme("bogus", Options{}); ok || s != nil {
		t.Errorf(`NewScheme("bogus") = %v, %v; want nil, false`, s, ok)
	}
}
