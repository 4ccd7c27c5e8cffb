package xpath

import (
	"strings"
	"testing"
)

// FuzzParseQuery checks that the query parser never panics and that every
// accepted query renders to a canonical form that reparses to itself
// (String is a fixed point after one round).
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"/a", "//a", "/a/b//c", "/play//act[4]",
		"//act[3]//following::act", "/a//following-sibling::b[2]",
		"//b[@id='x']", "//b[@id][2]", "//t[text()='v']",
		"/child::a/descendant::b", "//*", "/*[2]",
		"///", "/a[", "/a[0]", "", "a", "/a$b", "/a[@='v']",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("accepted %q, canonical %q does not reparse: %v", src, canon, err)
		}
		if q2.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", src, canon, q2.String())
		}
		if strings.Count(canon, "::") > len(q.Steps) {
			t.Fatalf("rendered more axes than steps: %q", canon)
		}
	})
}
