package server

// Explain support: the helpers the shared read path (beginRead) uses to
// dress an execution in its wire profile, plus the store's query-stats
// registry accessors. The profile answers the planner questions that are
// otherwise invisible per-request — which scheme served the query, whether
// the cache answered it, how each step narrowed the candidate set and which
// join answered it — in the candidate-count-and-label-bits currency
// ancestry labeling schemes are compared by.

import (
	"context"

	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/server/querystats"
	"primelabel/internal/server/trace"
)

// QueryStats returns the store's query-statistics registry.
func (s *Store) QueryStats() *querystats.Registry { return s.querystats }

// SetQueryStatsCapacity replaces the query-stats registry with an empty one
// bounded to n shapes (<= 0 selects the default). Call before the store
// starts serving; statistics recorded so far are discarded.
func (s *Store) SetQueryStatsCapacity(n int) { s.querystats = querystats.New(n) }

// explainSteps converts the executor's step profiles to their wire form.
func explainSteps(ex *rdb.Explain) []api.ExplainStep {
	out := make([]api.ExplainStep, len(ex.Steps))
	for i, st := range ex.Steps {
		out[i] = api.ExplainStep{
			Axis:       st.Axis,
			Name:       st.Name,
			Pos:        st.Pos,
			Filters:    st.Filters,
			Candidates: st.Candidates,
			Pairs:      st.Pairs,
			Emitted:    st.Emitted,
			JoinPlan:   st.JoinPlan,
		}
	}
	return out
}

// explainStages renders the spans the request's trace has completed so far
// (for a query: lock_wait, cache_lookup, xpath_eval, materialize). Nil when
// the context carries no trace.
func explainStages(ctx context.Context) []api.ExplainStage {
	tr := trace.FromContext(ctx)
	if tr == nil {
		return nil
	}
	spans := tr.Spans()
	out := make([]api.ExplainStage, len(spans))
	for i, sp := range spans {
		out[i] = api.ExplainStage{
			Stage:      sp.Stage,
			DurationMS: sp.Duration.Seconds() * 1e3,
		}
	}
	return out
}
