package xpath

import (
	"fmt"

	"primelabel/internal/xmltree"
)

// TreeEval evaluates a query by walking the tree with parent pointers — no
// labels involved. It defines the reference semantics the element-table
// executor (internal/rdb) is tested against.
func TreeEval(doc *xmltree.Document, q Query) ([]*xmltree.Node, error) {
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("xpath: empty query")
	}
	idx := xmltree.DocOrderIndex(doc)
	ctx := []*xmltree.Node{nil}
	for _, step := range q.Steps {
		seen := make(map[*xmltree.Node]bool)
		var out []*xmltree.Node
		for _, c := range ctx {
			ns := treeAxis(doc, c, step, idx)
			if step.Pos > 0 {
				if step.Pos <= len(ns) {
					ns = ns[step.Pos-1 : step.Pos]
				} else {
					ns = nil
				}
			}
			for _, n := range ns {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
		sortByIndex(out, idx)
		ctx = out
		if len(ctx) == 0 {
			return nil, nil
		}
	}
	return ctx, nil
}

// TreeEvalString parses and evaluates with the reference evaluator.
func TreeEvalString(doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return TreeEval(doc, q)
}

func nameMatches(n *xmltree.Node, name string) bool {
	return name == "*" || n.Name == name
}

// stepMatches combines the name test with the value filters.
func stepMatches(n *xmltree.Node, step Step) bool {
	return nameMatches(n, step.Name) && step.Matches(n)
}

func treeAxis(doc *xmltree.Document, ctx *xmltree.Node, step Step, idx map[*xmltree.Node]int) []*xmltree.Node {
	var out []*xmltree.Node
	switch step.Axis {
	case AxisChild:
		if ctx == nil {
			if stepMatches(doc.Root, step) {
				return []*xmltree.Node{doc.Root}
			}
			return nil
		}
		for _, c := range ctx.ElementChildren() {
			if stepMatches(c, step) {
				out = append(out, c)
			}
		}
	case AxisDescendant:
		start := doc.Root
		includeRoot := ctx == nil
		if ctx != nil {
			start = ctx
		}
		xmltree.WalkElements(start, func(n *xmltree.Node) bool {
			if !includeRoot && n == start {
				return true
			}
			if stepMatches(n, step) {
				out = append(out, n)
			}
			return true
		})
	case AxisFollowing:
		if ctx == nil {
			return nil
		}
		xmltree.WalkElements(doc.Root, func(n *xmltree.Node) bool {
			if idx[n] > idx[ctx] && !ctx.IsAncestorOf(n) && stepMatches(n, step) {
				out = append(out, n)
			}
			return true
		})
	case AxisPreceding:
		if ctx == nil {
			return nil
		}
		xmltree.WalkElements(doc.Root, func(n *xmltree.Node) bool {
			if idx[n] < idx[ctx] && !n.IsAncestorOf(ctx) && stepMatches(n, step) {
				out = append(out, n)
			}
			return true
		})
	case AxisFollowingSibling:
		if ctx == nil {
			return nil
		}
		for _, s := range xmltree.FollowingSiblings(ctx) {
			if stepMatches(s, step) {
				out = append(out, s)
			}
		}
	case AxisPrecedingSibling:
		if ctx == nil {
			return nil
		}
		for _, s := range xmltree.PrecedingSiblings(ctx) {
			if stepMatches(s, step) {
				out = append(out, s)
			}
		}
	}
	sortByIndex(out, idx)
	return out
}

func sortByIndex(ns []*xmltree.Node, idx map[*xmltree.Node]int) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && idx[ns[j]] < idx[ns[j-1]]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
