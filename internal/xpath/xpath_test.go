package xpath

import (
	"testing"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical rendering
	}{
		{"/play", "/play"},
		{"//act", "//act"},
		{"/play//act[4]", "/play//act[4]"},
		{"/play//act[3]//Following::act", "/play//act[3]/following::act"},
		{"/act//Following-Sibling::speech[3]", "/act/following-sibling::speech[3]"},
		{"/speech[4]//Preceding::line", "/speech[4]/preceding::line"},
		{"/a/b/c", "/a/b/c"},
		{"/*//b", "/*//b"},
		{"/child::a/descendant::b", "/a//b"},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "play", "/", "//", "/play[", "/play[0]", "/play[x]",
		"/bogus::a", "/a//", "/a/[2]", "/a/b$c",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestShapeMasksPositionsOnly pins the query-stats normalization: positional
// predicates become [*], everything else renders canonically. Text that does
// not parse has no Shape; labeld uses the raw text as its shape.
func TestShapeMasksPositionsOnly(t *testing.T) {
	cases := map[string]string{
		"/a/b[1]":             "/a/b[*]",
		"/a/b[7]":             "/a/b[*]",
		"/a/b":                "/a/b",
		"//x[3]//y[9]":        "//x[*]//y[*]",
		"//b/following::c[2]": "//b/following::c[*]",
	}
	for raw, want := range cases {
		q, err := Parse(raw)
		if err != nil {
			t.Errorf("Parse(%q): %v", raw, err)
			continue
		}
		if got := q.Shape(); got != want {
			t.Errorf("Parse(%q).Shape() = %q, want %q", raw, got, want)
		}
	}
	if _, err := Parse("not ( a valid ) query!"); err == nil {
		t.Error("unparsable text parsed")
	}
}

func TestAxisString(t *testing.T) {
	if AxisFollowingSibling.String() != "following-sibling" || AxisChild.String() != "child" {
		t.Error("Axis.String wrong")
	}
}
