package codec

import (
	"fmt"
	"strings"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/compact"
	"primelabel/internal/labeling/floatlab"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmltree"
)

// Options carries every setting a scheme constructor reads; each scheme
// ignores the fields it has no use for.
type Options struct {
	// Prime configures the prime scheme.
	Prime prime.Options
	// OrderPreserving keeps prefix-scheme sibling codes in document order.
	OrderPreserving bool
	// LayerHeight is the decomposed scheme's layer height (0 = 4).
	LayerHeight int
}

// schemes is the scheme registry: every labeling scheme compiled in, under
// the name the library, labeld's load API and -version use, in the order
// the API documents them.
var schemes = []struct {
	name  string
	build func(Options) labeling.Scheme
}{
	{"prime", func(o Options) labeling.Scheme { return prime.Scheme{Opts: o.Prime} }},
	{"prime-bottomup", func(Options) labeling.Scheme { return prime.BottomUpScheme{} }},
	{"prime-decomposed", func(o Options) labeling.Scheme { return prime.DecomposedScheme{LayerHeight: o.LayerHeight} }},
	{"interval", func(Options) labeling.Scheme { return interval.Scheme{Variant: interval.XISS} }},
	{"xrel", func(Options) labeling.Scheme { return interval.Scheme{Variant: interval.XRel} }},
	{"prefix-1", func(o Options) labeling.Scheme {
		return prefix.Scheme{Variant: prefix.Prefix1, OrderPreserving: o.OrderPreserving}
	}},
	{"prefix-2", func(o Options) labeling.Scheme {
		return prefix.Scheme{Variant: prefix.Prefix2, OrderPreserving: o.OrderPreserving}
	}},
	{"dewey", func(Options) labeling.Scheme { return prefix.DeweyScheme{} }},
	{"float", func(Options) labeling.Scheme { return floatlab.Scheme{} }},
	{"compact", func(Options) labeling.Scheme { return compact.Scheme{} }},
}

// SchemeNames lists every registered scheme name in registry order.
func SchemeNames() []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.name
	}
	return out
}

// NewScheme returns the named scheme configured by o; the empty name is
// the prime scheme. ok is false for a name the registry does not hold.
func NewScheme(name string, o Options) (s labeling.Scheme, ok bool) {
	if name == "" {
		name = "prime"
	}
	for _, e := range schemes {
		if e.name == name {
			return e.build(o), true
		}
	}
	return nil, false
}

// LabelString renders n's label in scheme-specific human-readable form:
// the integer label for the prime schemes (the layer chain, dot-separated,
// for the decomposed one), "(a,b)" for the interval, float and compact
// schemes, the bit string for prefix schemes and the dotted path for Dewey
// ("ε" for an empty code). A labeling outside the registry renders as its
// bit count.
func LabelString(lab labeling.Labeling, n *xmltree.Node) string {
	switch l := lab.(type) {
	case *prime.Labeling:
		return l.LabelOf(n).String()
	case *prime.BottomUpLabeling:
		return l.LabelOf(n).String()
	case *prime.DecomposedLabeling:
		parts := []string{}
		for _, e := range l.ChainOf(n) {
			parts = append(parts, e.String())
		}
		return strings.Join(parts, ".")
	case *interval.Labeling:
		a, b, ok := l.Interval(n)
		if !ok {
			return ""
		}
		return fmt.Sprintf("(%d,%d)", a, b)
	case *prefix.Labeling:
		bits, ok := l.BitsOf(n)
		if !ok {
			return ""
		}
		if bits.Len() == 0 {
			return "ε"
		}
		return bits.String()
	case *prefix.DeweyLabeling:
		s, _ := l.DeweyOf(n)
		if s == "" {
			return "ε"
		}
		return s
	case *floatlab.Labeling:
		a, b, ok := l.Interval(n)
		if !ok {
			return ""
		}
		return fmt.Sprintf("(%g,%g)", a, b)
	case *compact.Labeling:
		cl, ok := l.LabelOf(n)
		if !ok {
			return ""
		}
		return fmt.Sprintf("(%d,%d)", cl.Start, cl.End)
	default:
		return fmt.Sprintf("<%d bits>", lab.LabelBits(n))
	}
}
