package rdb

// Document-order extent joins: the physical operators behind the Extent
// planner, plus the stack-merge core StackJoin shares. Every operator here
// exploits the same invariant — rows are preorder positions, so a subtree
// is the contiguous run [i, extent[i]] — to replace per-pair label probes
// (big.Int divisibility for prime labels) with O(1) integer comparisons
// and single-pass merges. The label-driven operators remain: they are the
// ground truth the parity tests hold these operators to, byte for byte.

import (
	"math/bits"
	"slices"
	"sort"
)

// Join plan names, recorded per step in StepProfile.JoinPlan so EXPLAIN
// output shows which physical operator the planner picked.
const (
	// planScan is the document-context first step: a tag-index scan, no join.
	planScan = "scan"
	// planNestedLoop is the label-predicate nested loop (NestedLoop planner).
	planNestedLoop = "nested-loop"
	// planExtentProbe probes the candidate index per context row: binary
	// search to the subtree run, then an O(answer) walk.
	planExtentProbe = "extent-probe"
	// planExtentMerge is the single-pass document-order stack merge over
	// extent containments (child and descendant axes).
	planExtentMerge = "extent-merge"
	// planExtentRange is the binary-search row-range scan for
	// following/preceding.
	planExtentRange = "extent-range"
	// planExtentCover is the descendant semi-join: the union of context
	// subtree intervals swept once against the candidate index. Chosen
	// whenever the step has no positional predicate — the executor then
	// needs only the distinct inner rows, so pair materialization and the
	// projection's dedup both vanish.
	planExtentCover = "extent-cover"
	// planExtentRangeCover is the following/preceding semi-join: without a
	// positional predicate the union of the per-context answers is one
	// row range, emitted directly with no pairs.
	planExtentRangeCover = "extent-range-cover"
	// planExtentSibling is the sibling join over the extent and depth
	// columns: a context's siblings are the rows of its parent's run at its
	// own depth.
	planExtentSibling = "extent-sibling"
	// planOrderScan is the pairwise order-predicate join.
	planOrderScan = "order-scan"
	// planSiblingIndex is the parent-grouped sibling join.
	planSiblingIndex = "sibling-index"
)

// extentJoinPlan is the Extent planner's per-step cost model for the
// containment axes. Costs in comparisons: the index probe pays
// o·(log₂c + answer), the merge o + c + answer. The answer term is common,
// so the probe wins once the context side is small enough that o·log₂c
// undercuts the merge's full sweep of both inputs.
func extentJoinPlan(nctx, ncands int) string {
	if nctx*(bits.Len(uint(ncands))+1) < nctx+ncands {
		return planExtentProbe
	}
	return planExtentMerge
}

// extentJoin runs the child (childOnly) or descendant join the cost model
// picks, returning the plan's name alongside the pairs.
func (t *Table) extentJoin(ctx, cands RowSet, childOnly bool) (Pairs, string) {
	if plan := extentJoinPlan(len(ctx), len(cands)); plan == planExtentProbe {
		return t.extentProbe(ctx, cands, childOnly), plan
	}
	return t.stackMerge(ctx, cands, t.extentContains, childOnly), planExtentMerge
}

// extentContains reports whether row o is a proper ancestor of row i: the
// O(1) containment test that replaces the labeling's ancestor probe.
func (t *Table) extentContains(o, i int) bool {
	return o < i && i <= t.extent[o]
}

// stackMerge is the document-order merge core shared by StackJoin and the
// Extent planner's child/descendant operators. Both inputs are ascending
// row sets; contains(o, i) decides proper containment (label probe or
// extent comparison). Each outer row is pushed once and popped once, and —
// unlike the classic Stack-Tree formulation — pairs are emitted already in
// (Out, In) order, so no trailing sort is needed: every stack entry
// accumulates its own pairs (constant Out, ascending In) plus the flushed
// chunks of its popped stack-descendants, whose Out rows are all greater
// and whose spans are disjoint and ascending; concatenation at pop time
// preserves order by construction. With childOnly set, only the top entry
// can be the inner row's parent (it is the innermost outer ancestor), so a
// depth comparison emits at most one pair per inner row.
func (t *Table) stackMerge(outer, inner RowSet, contains func(o, i int) bool, childOnly bool) Pairs {
	if len(outer) == 0 || len(inner) == 0 {
		return nil
	}
	type entry struct {
		row      int
		self     Pairs   // pairs with Out == row, In ascending
		deferred []Pairs // sorted chunks flushed by popped descendants
	}
	var (
		stack []entry
		done  []Pairs
		total int
	)
	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		chunks := e.deferred
		if len(e.self) > 0 {
			chunks = append([]Pairs{e.self}, e.deferred...)
		}
		if len(chunks) == 0 {
			return
		}
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			top.deferred = append(top.deferred, chunks...)
		} else {
			done = append(done, chunks...)
		}
	}
	oi := 0
	for _, in := range inner {
		// Push every outer row starting before the current inner row,
		// flushing stack tops whose subtrees ended (they cannot contain the
		// new candidate, hence no later row either).
		for oi < len(outer) && outer[oi] < in {
			cand := outer[oi]
			for len(stack) > 0 && !contains(stack[len(stack)-1].row, cand) {
				pop()
			}
			stack = append(stack, entry{row: cand})
			oi++
		}
		// Flush outers whose subtree ended before this inner row; the rest
		// form a nested chain that all contain it.
		for len(stack) > 0 && !contains(stack[len(stack)-1].row, in) {
			pop()
		}
		if len(stack) == 0 {
			continue
		}
		if childOnly {
			top := &stack[len(stack)-1]
			if t.depth[top.row]+1 == t.depth[in] {
				top.self = append(top.self, Pair{Out: top.row, In: in})
				total++
			}
			continue
		}
		for k := range stack {
			stack[k].self = append(stack[k].self, Pair{Out: stack[k].row, In: in})
		}
		total += len(stack)
	}
	for len(stack) > 0 {
		pop()
	}
	out := make(Pairs, 0, total)
	for _, c := range done {
		out = append(out, c...)
	}
	return out
}

// extentProbe joins by probing the candidate index per context row: one
// binary search to the start of o's subtree run, then a walk bounded by
// extent[o]. Output is (Out, In)-sorted by construction, identical to the
// merge's. The cost model routes here when the context side is small.
func (t *Table) extentProbe(ctx, cands RowSet, childOnly bool) Pairs {
	var out Pairs
	for _, o := range ctx {
		end := t.extent[o]
		for _, i := range cands[sort.SearchInts(cands, o+1):] {
			if i > end {
				break
			}
			if childOnly && t.depth[i] != t.depth[o]+1 {
				continue
			}
			out = append(out, Pair{Out: o, In: i})
		}
	}
	return out
}

// descendantCover projects the descendant join without materializing it:
// each candidate inside any context subtree is emitted exactly once, in
// ascending row order. Subtree intervals are laminar — a later context row
// is either nested inside the rightmost swept interval (extent within
// `covered`, nothing new) or starts past it — so one sweep of the ascending
// context rows with a monotone candidate cursor is O(|ctx| + |cands|),
// independent of how many (ancestor, descendant) pairs the full join would
// enumerate. Output equals Pairs.ProjectIn() of that join, byte for byte.
func (t *Table) descendantCover(ctx, cands RowSet) RowSet {
	var out RowSet
	covered := -1 // rightmost row any swept subtree reaches
	j := 0
	for _, o := range ctx {
		if t.extent[o] <= covered {
			continue
		}
		for j < len(cands) && cands[j] <= o {
			j++
		}
		for j < len(cands) && cands[j] <= t.extent[o] {
			out = append(out, cands[j])
			j++
		}
		covered = t.extent[o]
	}
	return out
}

// rangeJoin answers following/preceding as row-range scans: following(c)
// is exactly the candidate rows after c's subtree (> extent[c]), and
// preceding(c) the rows before c that are not ancestors of c (extent < c).
// O(log c + answer) per context row, in the order join's output order
// (context-major, candidates ascending). Only valid when the table is
// ordered — otherwise the order join runs, failing exactly as the
// labeling's Before would on a scheme without order support.
func (t *Table) rangeJoin(ctx, cands RowSet, following bool) Pairs {
	var out Pairs
	for _, c := range ctx {
		if following {
			for _, i := range cands[sort.SearchInts(cands, t.extent[c]+1):] {
				out = append(out, Pair{Out: c, In: i})
			}
			continue
		}
		for _, i := range cands[:sort.SearchInts(cands, c)] {
			if t.extent[i] < c {
				out = append(out, Pair{Out: c, In: i})
			}
		}
	}
	return out
}

// rangeCover projects rangeJoin without materializing it, in ascending row
// order. following(c) is every candidate after extent[c], so the union
// over the context is every candidate after the smallest context extent.
// preceding(c) is every candidate whose subtree ends before c, so the
// union is every candidate whose subtree ends before the last context row
// (the ancestors of that row are the candidates before it that it drops).
// Output equals rangeJoin(...).ProjectIn(), byte for byte, and is always a
// fresh slice: cands may be the tag index.
func (t *Table) rangeCover(ctx, cands RowSet, following bool) RowSet {
	if len(ctx) == 0 {
		return nil
	}
	if following {
		first := t.extent[ctx[0]]
		for _, c := range ctx[1:] {
			first = min(first, t.extent[c])
		}
		return slices.Clone(cands[sort.SearchInts(cands, first+1):])
	}
	last := ctx[len(ctx)-1]
	before := cands[:sort.SearchInts(cands, last)]
	out := make(RowSet, 0, len(before))
	for _, i := range before {
		if t.extent[i] < last {
			out = append(out, i)
		}
	}
	return out
}

// extentSiblings is the sibling join over the structural columns: the
// siblings of context row c are the rows inside its parent's run
// (pr, extent[pr]] at c's depth — following ones after c's subtree
// (> extent[c]), preceding ones before c. No labels, no per-query parent
// map; output is context-major with candidates ascending, exactly the
// label-driven siblingJoin's. Only used on ordered tables, where that
// join cannot fail.
func (t *Table) extentSiblings(ctx, cands RowSet, following bool) Pairs {
	var out Pairs
	for _, c := range ctx {
		pr, ok := t.rowOf[t.nodes[c].Parent]
		if !ok {
			continue // the root has no element siblings
		}
		lo, hi := pr+1, c
		if following {
			lo, hi = t.extent[c]+1, t.extent[pr]+1
		}
		for _, i := range cands[sort.SearchInts(cands, lo):] {
			if i >= hi {
				break
			}
			if t.depth[i] == t.depth[c] {
				out = append(out, Pair{Out: c, In: i})
			}
		}
	}
	return out
}

// Depth returns row id's element-tree depth (root = 0).
func (t *Table) Depth(id int) int { return t.depth[id] }

// Extent returns the row of id's preorder-last descendant (id itself for a
// leaf): the subtree of id occupies rows [id, Extent(id)].
func (t *Table) Extent(id int) int { return t.extent[id] }

// labelContains adapts the labeling's ancestor probe to the merge core's
// row signature.
func (t *Table) labelContains() func(o, i int) bool {
	pred := t.AncestorPred()
	return func(o, i int) bool { return pred(t.nodes[o], t.nodes[i]) }
}
