package rdb

// Explain is the per-step execution profile collector behind the server's
// ?explain=1 query mode. Every recording method is nil-safe, and the
// executor threads a *Explain through its body, so the explain-off path (a
// nil collector) performs no extra work and no extra allocations — parity
// and allocation tests pin both properties.

import "primelabel/internal/xpath"

// StepProfile describes one executed location step: what the step asked
// for, how many rows each phase saw, and which operator joined it.
type StepProfile struct {
	// Axis is the step's axis name (child, descendant, following, ...).
	Axis string
	// Name is the step's tag test ("*" for any element).
	Name string
	// Pos is the positional predicate [n], 0 when absent.
	Pos int
	// Filters is the number of value predicates on the step.
	Filters int
	// Candidates is the tag-scan output size after value filters — the
	// inner input of the step's join.
	Candidates int
	// Pairs is the join output size before positional selection (0 for the
	// document-context first step, which performs no join).
	Pairs int
	// Emitted is the context-row count the step handed to the next step —
	// the distinct inner rows after positional selection.
	Emitted int
	// JoinPlan is the physical operator the per-step planner chose for the
	// step's join ("scan" for the document-context first step).
	JoinPlan string
}

// Explain accumulates one query execution's step profiles. A nil *Explain
// is valid everywhere and records nothing.
type Explain struct {
	// Steps holds one profile per executed location step, in query order.
	// Execution can stop early (an empty intermediate context short-circuits
	// the query), so len(Steps) can be less than the query's step count.
	Steps []StepProfile
}

// addStep appends one step profile; nil-safe.
func (e *Explain) addStep(p StepProfile) {
	if e == nil {
		return
	}
	e.Steps = append(e.Steps, p)
}

// ExecPathExplain is ExecPathStats plus a per-step profile: each executed
// step's candidate/pair/emitted counts and join plan land in ex. A
// nil ex degrades to exactly ExecPathStats.
func (t *Table) ExecPathExplain(q xpath.Query, ex *Explain) (RowSet, ExecStats, error) {
	var stats ExecStats
	rs, err := t.execPath(q, &stats, ex)
	return rs, stats, err
}
