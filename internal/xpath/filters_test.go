package xpath

import (
	"testing"
)

func TestParseFilters(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`/store/book[@id='b2']`, `/store/book[@id='b2']`},
		{`//book[@lang]`, `//book[@lang]`},
		{`//book[@lang][2]`, `//book[@lang][2]`},
		{`//title[text()='Dune']`, `//title[text()='Dune']`},
		{`//book[@lang="en"]`, `//book[@lang='en']`},
		{`//book[@lang][text()='x'][3]`, `//book[@lang][text()='x'][3]`},
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

func TestParseFilterErrors(t *testing.T) {
	for _, bad := range []string{
		`//book[@]`, `//book[@1x]`, `//book[@id=unquoted]`, `//book[@id=']`,
		`//book[text()]`, `//book[text()=x]`, `//book[]`, `//book[2][3]`,
		`//book[@id='a'`, `//book[foo()]`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
