package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a malformed query.
type ParseError struct {
	Query string
	Pos   int
	Msg   string
}

// Error reports the query, the byte offset where parsing failed, and why.
func (e *ParseError) Error() string {
	return fmt.Sprintf("xpath: %q at %d: %s", e.Query, e.Pos, e.Msg)
}

// Parse parses a path expression such as
//
//	/play//act[3]//following::act
//	//act//following-sibling::speech[3]
//
// Rules: a leading "/" anchors at the document root, "//" makes the next
// step a descendant step, and an explicit axis (case-insensitive, so the
// paper's "Following-Sibling" spelling works) overrides the separator's
// implicit axis.
func Parse(input string) (Query, error) {
	src := strings.TrimSpace(input)
	if src == "" {
		return Query{}, &ParseError{Query: input, Msg: "empty query"}
	}
	if !strings.HasPrefix(src, "/") {
		return Query{}, &ParseError{Query: input, Msg: "query must start with / or //"}
	}
	var steps []Step
	i := 0
	for i < len(src) {
		// Separator.
		if src[i] != '/' {
			return Query{}, &ParseError{Query: input, Pos: i, Msg: "expected /"}
		}
		axis := AxisChild
		i++
		if i < len(src) && src[i] == '/' {
			axis = AxisDescendant
			i++
		}
		if i >= len(src) {
			return Query{}, &ParseError{Query: input, Pos: i, Msg: "trailing separator"}
		}
		// Step text runs to the next separator.
		end := i
		for end < len(src) && src[end] != '/' {
			end++
		}
		stepText := src[i:end]
		step, err := parseStep(stepText, axis)
		if err != nil {
			return Query{}, &ParseError{Query: input, Pos: i, Msg: err.Error()}
		}
		steps = append(steps, step)
		i = end
	}
	return Query{Steps: steps}, nil
}

// axisNames maps lower-cased axis spellings.
var axisNames = map[string]Axis{
	"child":             AxisChild,
	"descendant":        AxisDescendant,
	"following":         AxisFollowing,
	"preceding":         AxisPreceding,
	"following-sibling": AxisFollowingSibling,
	"preceding-sibling": AxisPrecedingSibling,
}

func parseStep(text string, implicit Axis) (Step, error) {
	step := Step{Axis: implicit}
	rest := text
	if k := strings.Index(rest, "::"); k >= 0 {
		axisName := strings.ToLower(rest[:k])
		axis, ok := axisNames[axisName]
		if !ok {
			return Step{}, fmt.Errorf("unknown axis %q", rest[:k])
		}
		step.Axis = axis
		rest = rest[k+2:]
	}
	// Predicates: any number of value filters plus at most one positional.
	nameEnd := strings.IndexByte(rest, '[')
	if nameEnd < 0 {
		nameEnd = len(rest)
	}
	preds := rest[nameEnd:]
	rest = rest[:nameEnd]
	for preds != "" {
		if preds[0] != '[' {
			return Step{}, fmt.Errorf("malformed predicates in %q", text)
		}
		end := strings.IndexByte(preds, ']')
		if end < 0 {
			return Step{}, fmt.Errorf("unterminated predicate in %q", text)
		}
		body := strings.TrimSpace(preds[1:end])
		preds = preds[end+1:]
		if err := parsePredicate(body, &step); err != nil {
			return Step{}, err
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return Step{}, fmt.Errorf("missing name test in %q", text)
	}
	if rest != "*" && !validName(rest) {
		return Step{}, fmt.Errorf("invalid name test %q", rest)
	}
	step.Name = rest
	return step, nil
}

// parsePredicate parses one bracket body: a positive integer, "@name",
// "@name='value'" or "text()='value'" (single or double quotes).
func parsePredicate(body string, step *Step) error {
	switch {
	case body == "":
		return fmt.Errorf("empty predicate")
	case body[0] == '@':
		expr := body[1:]
		if k := strings.IndexByte(expr, '='); k >= 0 {
			name := strings.TrimSpace(expr[:k])
			val, err := unquote(strings.TrimSpace(expr[k+1:]))
			if err != nil || !validName(name) {
				return fmt.Errorf("malformed attribute predicate [%s]", body)
			}
			step.Filters = append(step.Filters, Filter{Kind: FilterAttrEquals, Attr: name, Value: val})
			return nil
		}
		if !validName(expr) {
			return fmt.Errorf("malformed attribute predicate [%s]", body)
		}
		step.Filters = append(step.Filters, Filter{Kind: FilterAttrExists, Attr: expr})
		return nil
	case strings.HasPrefix(body, "text()"):
		expr := strings.TrimSpace(body[len("text()"):])
		if !strings.HasPrefix(expr, "=") {
			return fmt.Errorf("malformed text predicate [%s]", body)
		}
		val, err := unquote(strings.TrimSpace(expr[1:]))
		if err != nil {
			return fmt.Errorf("malformed text predicate [%s]", body)
		}
		step.Filters = append(step.Filters, Filter{Kind: FilterTextEquals, Value: val})
		return nil
	default:
		n, err := strconv.Atoi(body)
		if err != nil || n < 1 {
			return fmt.Errorf("predicate must be a positive integer, @attr or text() test, got [%s]", body)
		}
		if step.Pos > 0 {
			return fmt.Errorf("multiple positional predicates")
		}
		step.Pos = n
		return nil
	}
}

// unquote strips matching single or double quotes.
func unquote(s string) (string, error) {
	if len(s) >= 2 {
		if (s[0] == '\'' && s[len(s)-1] == '\'') || (s[0] == '"' && s[len(s)-1] == '"') {
			return s[1 : len(s)-1], nil
		}
	}
	return "", fmt.Errorf("value must be quoted")
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	// Colons may join QName parts but not lead, trail, or double up (a
	// leading/doubled colon would collide with axis syntax on re-parse).
	if strings.HasPrefix(s, ":") || strings.HasSuffix(s, ":") || strings.Contains(s, "::") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case i > 0 && (r >= '0' && r <= '9' || r == '-' || r == '.'):
		default:
			return false
		}
	}
	return true
}
