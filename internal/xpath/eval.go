package xpath

import (
	"fmt"
	"sort"

	"primelabel/internal/labeling"
	"primelabel/internal/xmltree"
)

// Evaluator executes queries over a labeled document. All structural
// relationships are decided from labels; the tree is only consulted for
// the per-tag node index (which a real system would store as a tag index,
// exactly as the paper's relational mapping does) and for parent pointers
// on the sibling axes, matching Section 4.3's evaluation strategy.
type Evaluator struct {
	doc   *xmltree.Document
	lab   labeling.Labeling
	byTag map[string][]*xmltree.Node
	all   []*xmltree.Node
	// ordCache memoizes labeling.Orderer ranks between queries; Reindex
	// clears it after document mutations.
	ordCache map[*xmltree.Node]int
	// sibIndex groups candidates of a tag by parent node, so sibling axes
	// touch only same-parent candidates instead of the whole tag list.
	sibIndex map[string]map[*xmltree.Node][]*xmltree.Node
	// warmed marks that Warm pre-filled every lazy index; from then on Eval
	// performs no internal writes (lookups that would miss compute locally
	// instead of caching), making the evaluator safe for concurrent use
	// until the next Reindex.
	warmed bool
}

// siblingsOf returns the candidates with the given tag under parent.
func (e *Evaluator) siblingsOf(tag string, parent *xmltree.Node) []*xmltree.Node {
	if e.sibIndex == nil && !e.warmed {
		e.sibIndex = make(map[string]map[*xmltree.Node][]*xmltree.Node)
	}
	byParent, ok := e.sibIndex[tag]
	if !ok {
		byParent = make(map[*xmltree.Node][]*xmltree.Node)
		for _, n := range e.candidates(tag) {
			if n.Parent != nil {
				byParent[n.Parent] = append(byParent[n.Parent], n)
			}
		}
		if !e.warmed {
			e.sibIndex[tag] = byParent
		}
	}
	return byParent[parent]
}

// New builds an evaluator over the labeling's document.
func New(lab labeling.Labeling) *Evaluator {
	e := &Evaluator{
		doc:   lab.Doc(),
		lab:   lab,
		byTag: make(map[string][]*xmltree.Node),
	}
	xmltree.WalkElements(e.doc.Root, func(n *xmltree.Node) bool {
		e.byTag[n.Name] = append(e.byTag[n.Name], n)
		e.all = append(e.all, n)
		return true
	})
	// Pre-sized to the element count: Warm fills a rank for every element,
	// and growing a large map one insert at a time rehashes repeatedly.
	e.ordCache = make(map[*xmltree.Node]int, len(e.all))
	return e
}

// Reindex rebuilds the tag index (and drops cached order ranks) after the
// document was mutated. It also drops Warm's frozen state; call Warm again
// before resuming concurrent reads.
func (e *Evaluator) Reindex() {
	e.byTag = make(map[string][]*xmltree.Node)
	e.all = nil
	e.sibIndex = nil
	e.warmed = false
	xmltree.WalkElements(e.doc.Root, func(n *xmltree.Node) bool {
		e.byTag[n.Name] = append(e.byTag[n.Name], n)
		e.all = append(e.all, n)
		return true
	})
	e.ordCache = make(map[*xmltree.Node]int, len(e.all))
}

// Warm pre-materializes every lazily built index — the per-node order
// ranks and the per-tag sibling index — and freezes them. After Warm
// returns, Eval and EvalString perform no internal writes, so the evaluator
// is safe for concurrent use by any number of reader goroutines, provided
// the underlying labeling and document are quiescent. Mutating the document
// requires Reindex, which thaws the evaluator; call Warm again afterwards.
func (e *Evaluator) Warm() {
	if _, ok := e.lab.(labeling.Orderer); ok {
		for _, n := range e.all {
			e.rank(n)
		}
	}
	if e.sibIndex == nil {
		e.sibIndex = make(map[string]map[*xmltree.Node][]*xmltree.Node)
	}
	for tag := range e.byTag {
		e.siblingsOf(tag, nil)
	}
	e.warmed = true
}

// candidates returns all elements matching the name test, document order.
func (e *Evaluator) candidates(name string) []*xmltree.Node {
	if name == "*" {
		return e.all
	}
	return e.byTag[name]
}

// EvalString parses and evaluates a query.
func (e *Evaluator) EvalString(query string) ([]*xmltree.Node, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

// Eval evaluates a parsed query and returns matching nodes in document
// order.
func (e *Evaluator) Eval(q Query) ([]*xmltree.Node, error) {
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("xpath: empty query")
	}
	// Context starts at the document (parent of the root element),
	// represented by nil.
	ctx := []*xmltree.Node{nil}
	for _, step := range q.Steps {
		next, err := e.evalStep(ctx, step)
		if err != nil {
			return nil, err
		}
		ctx = next
		if len(ctx) == 0 {
			return nil, nil
		}
	}
	return ctx, nil
}

// evalStep applies one step to every context node, unions the results,
// and returns them in document order.
func (e *Evaluator) evalStep(ctx []*xmltree.Node, step Step) ([]*xmltree.Node, error) {
	seen := make(map[*xmltree.Node]bool)
	var out []*xmltree.Node
	for _, c := range ctx {
		ns, err := e.axisNodes(c, step)
		if err != nil {
			return nil, err
		}
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
	return e.sortDocOrder(out)
}

// axisNodes returns the step's node set for one context node in document
// order.
func (e *Evaluator) axisNodes(ctx *xmltree.Node, step Step) ([]*xmltree.Node, error) {
	cands := e.candidates(step.Name)
	if len(step.Filters) > 0 {
		filtered := make([]*xmltree.Node, 0, len(cands))
		for _, n := range cands {
			if step.Matches(n) {
				filtered = append(filtered, n)
			}
		}
		cands = filtered
	}
	var out []*xmltree.Node
	switch step.Axis {
	case AxisChild:
		if ctx == nil {
			// Document context: the root element is its only child.
			if (step.Name == "*" || e.doc.Root.Name == step.Name) && step.Matches(e.doc.Root) {
				return []*xmltree.Node{e.doc.Root}, nil
			}
			return nil, nil
		}
		for _, n := range cands {
			if e.lab.IsParent(ctx, n) {
				out = append(out, n)
			}
		}
	case AxisDescendant:
		if ctx == nil {
			return append(out, cands...), nil
		}
		for _, n := range cands {
			if e.lab.IsAncestor(ctx, n) {
				out = append(out, n)
			}
		}
	case AxisFollowing:
		if ctx == nil {
			return nil, nil
		}
		if co, ok := e.rank(ctx); ok {
			for _, n := range cands {
				no, _ := e.rank(n)
				if no > co && !e.lab.IsAncestor(ctx, n) {
					out = append(out, n)
				}
			}
			break
		}
		for _, n := range cands {
			after, err := e.lab.Before(ctx, n)
			if err != nil {
				return nil, err
			}
			if after && !e.lab.IsAncestor(ctx, n) {
				out = append(out, n)
			}
		}
	case AxisPreceding:
		if ctx == nil {
			return nil, nil
		}
		if co, ok := e.rank(ctx); ok {
			for _, n := range cands {
				no, _ := e.rank(n)
				if no < co && !e.lab.IsAncestor(n, ctx) {
					out = append(out, n)
				}
			}
			break
		}
		for _, n := range cands {
			before, err := e.lab.Before(n, ctx)
			if err != nil {
				return nil, err
			}
			if before && !e.lab.IsAncestor(n, ctx) {
				out = append(out, n)
			}
		}
	case AxisFollowingSibling, AxisPrecedingSibling:
		if ctx == nil || ctx.Parent == nil {
			return nil, nil
		}
		co, haveRank := e.rank(ctx)
		for _, n := range e.siblingsOf(step.Name, ctx.Parent) {
			// IsParent keeps the decision label-driven; the index only
			// narrows the candidate set.
			if n == ctx || !e.lab.IsParent(ctx.Parent, n) {
				continue
			}
			if len(step.Filters) > 0 && !step.Matches(n) {
				continue
			}
			var keep bool
			if haveRank {
				no, _ := e.rank(n)
				if step.Axis == AxisFollowingSibling {
					keep = no > co
				} else {
					keep = no < co
				}
			} else {
				var err error
				if step.Axis == AxisFollowingSibling {
					keep, err = e.lab.Before(ctx, n)
				} else {
					keep, err = e.lab.Before(n, ctx)
				}
				if err != nil {
					return nil, err
				}
			}
			if keep {
				out = append(out, n)
			}
		}
	default:
		return nil, fmt.Errorf("xpath: unsupported axis %v", step.Axis)
	}
	return e.sortDocOrder(out)
}

// rank returns a memoized document-order rank for n when the labeling
// implements labeling.Orderer (and supports order), materializing order
// numbers once instead of comparing labels pairwise.
func (e *Evaluator) rank(n *xmltree.Node) (int, bool) {
	if v, hit := e.ordCache[n]; hit {
		return v, true
	}
	or, ok := e.lab.(labeling.Orderer)
	if !ok {
		return 0, false
	}
	v, err := or.OrderOf(n)
	if err != nil {
		return 0, false
	}
	if !e.warmed {
		e.ordCache[n] = v
	}
	return v, true
}

// sortDocOrder sorts nodes into document order: by materialized order
// ranks when available, else with the labeling's Before, else by tree walk.
func (e *Evaluator) sortDocOrder(ns []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ns) < 2 {
		return ns, nil
	}
	if _, ok := e.rank(ns[0]); ok {
		type ranked struct {
			n *xmltree.Node
			r int
		}
		ord := make([]ranked, len(ns))
		usable := true
		for i, n := range ns {
			r, ok := e.rank(n)
			if !ok {
				usable = false
				break
			}
			ord[i] = ranked{n, r}
		}
		if usable {
			sort.Slice(ord, func(i, j int) bool { return ord[i].r < ord[j].r })
			for i := range ord {
				ns[i] = ord[i].n
			}
			return ns, nil
		}
	}
	// Probe whether the labeling supports order.
	if _, err := e.lab.Before(ns[0], ns[1]); err == nil {
		var sortErr error
		sort.SliceStable(ns, func(i, j int) bool {
			b, err := e.lab.Before(ns[i], ns[j])
			if err != nil {
				sortErr = err
			}
			return b
		})
		return ns, sortErr
	}
	// Fallback: tree-derived order index.
	idx := xmltree.DocOrderIndex(e.doc)
	sort.SliceStable(ns, func(i, j int) bool { return idx[ns[i]] < idx[ns[j]] })
	return ns, nil
}
