// Package xpath implements the XPath fragment the paper's query workload
// (Table 2) uses: child and descendant steps, name tests, positional
// predicates, and the four order-sensitive axes following, preceding,
// following-sibling and preceding-sibling (Section 4).
//
// The package holds the parser, the AST and TreeEval, a tree-walking
// evaluator that defines the fragment's semantics. Queries over a labeled
// document run on its element table (internal/rdb), the executor the
// library and labeld share; tests hold that executor to TreeEval.
package xpath

import (
	"fmt"
	"strings"
)

// Axis enumerates the supported step axes.
type Axis int

const (
	// AxisChild is the default axis of a "/" step.
	AxisChild Axis = iota
	// AxisDescendant is the implicit axis of a "//" step.
	AxisDescendant
	// AxisFollowing selects nodes after the context node in document
	// order, excluding its descendants.
	AxisFollowing
	// AxisPreceding selects nodes before the context node in document
	// order, excluding its ancestors.
	AxisPreceding
	// AxisFollowingSibling selects later siblings.
	AxisFollowingSibling
	// AxisPrecedingSibling selects earlier siblings.
	AxisPrecedingSibling
)

// String returns the axis name as written in a query, e.g.
// "following-sibling".
func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisFollowing:
		return "following"
	case AxisPreceding:
		return "preceding"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	default:
		return fmt.Sprintf("axis(%d)", int(a))
	}
}

// FilterKind discriminates value predicates.
type FilterKind int

const (
	// FilterAttrExists is [@name].
	FilterAttrExists FilterKind = iota
	// FilterAttrEquals is [@name='value'].
	FilterAttrEquals
	// FilterTextEquals is [text()='value'].
	FilterTextEquals
)

// Filter is one value predicate of a step. Value predicates select on the
// node's data (attributes, character content) — the columns a relational
// mapping stores next to the label — and combine with the positional
// predicate, which then indexes the filtered set.
type Filter struct {
	Kind  FilterKind
	Attr  string // attribute name for the attr kinds
	Value string // comparison value for the equality kinds
}

// String renders the filter as the predicate it was parsed from, brackets
// included.
func (f Filter) String() string {
	switch f.Kind {
	case FilterAttrExists:
		return "[@" + f.Attr + "]"
	case FilterAttrEquals:
		return "[@" + f.Attr + "='" + f.Value + "']"
	case FilterTextEquals:
		return "[text()='" + f.Value + "']"
	default:
		return "[?]"
	}
}

// Step is one location step.
type Step struct {
	Axis    Axis
	Name    string   // tag name, or "*" for any element
	Filters []Filter // value predicates, applied before Pos
	Pos     int      // positional predicate [n]; 0 when absent
}

// String renders the step in canonical form: the axis (omitted for child
// and descendant, which the separator carries), the name test, value
// predicates, then the positional predicate.
func (s Step) String() string {
	out := ""
	switch s.Axis {
	case AxisChild:
		// default
	case AxisDescendant:
		// rendered by the separator
	default:
		out += s.Axis.String() + "::"
	}
	out += s.Name
	for _, f := range s.Filters {
		out += f.String()
	}
	if s.Pos > 0 {
		out += fmt.Sprintf("[%d]", s.Pos)
	}
	return out
}

// Matches reports whether n satisfies all of the step's value filters.
func (s Step) Matches(n filterable) bool {
	for _, f := range s.Filters {
		switch f.Kind {
		case FilterAttrExists:
			if _, ok := n.Attr(f.Attr); !ok {
				return false
			}
		case FilterAttrEquals:
			v, ok := n.Attr(f.Attr)
			if !ok || v != f.Value {
				return false
			}
		case FilterTextEquals:
			if n.Text() != f.Value {
				return false
			}
		}
	}
	return true
}

// filterable is the node surface value predicates need.
type filterable interface {
	Attr(name string) (string, bool)
	Text() string
}

// Query is a parsed path expression.
type Query struct {
	Steps []Step
}

// String renders the query in canonical form: "/" before a child step,
// "//" before a descendant step, and every other axis spelled out.
func (q Query) String() string {
	var b strings.Builder
	for _, s := range q.Steps {
		if s.Axis == AxisDescendant {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Shape renders the query with positional predicates masked as [*], so
// queries differing only in position index — /a/b[1] vs /a/b[7] — share one
// shape. Value predicates stay verbatim: they name columns, not constants of
// an enumeration, and folding them would merge genuinely different plans.
// This is the normalization key of the server's query-stats registry, in the
// spirit of pg_stat_statements' query fingerprinting.
func (q Query) Shape() string {
	var b strings.Builder
	for _, s := range q.Steps {
		if s.Axis == AxisDescendant {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		masked := s
		masked.Pos = 0
		b.WriteString(masked.String())
		if s.Pos > 0 {
			b.WriteString("[*]")
		}
	}
	return b.String()
}
