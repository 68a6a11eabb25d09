package dehin

import "github.com/hinpriv/dehin/internal/obs"

// attackMetrics holds the attack's resolved metric handles; nil when
// Config.Metrics is nil (the default), which disables the whole layer.
//
// The hot path never touches these atomics directly: per-query events
// accumulate as plain integers in the queryScratch (queryStats below) and
// are flushed in one batch per query behind a single a.met != nil branch.
// That keeps the instrumented steady-state query allocation-free and the
// disabled one indistinguishable from uninstrumented code - the scratch
// increments are register-cheap and the only added control flow is the
// per-query flush branch (see DESIGN.md §5.2).
type attackMetrics struct {
	queries     *obs.Counter
	candidates  *obs.Counter
	pruned      *obs.Counter
	memoHits    *obs.Counter
	memoMisses  *obs.Counter
	matcherRuns *obs.Counter
	fallbacks   *obs.Counter
	runs        *obs.Counter
	strips      *obs.Counter
	runNs       *obs.Histogram
}

func newAttackMetrics(r *obs.Registry) *attackMetrics {
	if r == nil {
		return nil
	}
	return &attackMetrics{
		queries:     r.Counter("dehin_attack_queries_total"),
		candidates:  r.Counter("dehin_attack_profile_candidates_total"),
		pruned:      r.Counter("dehin_attack_degree_pruned_total"),
		memoHits:    r.Counter("dehin_attack_memo_hits_total"),
		memoMisses:  r.Counter("dehin_attack_memo_misses_total"),
		matcherRuns: r.Counter("dehin_attack_matcher_runs_total"),
		fallbacks:   r.Counter("dehin_attack_profile_fallbacks_total"),
		runs:        r.Counter("dehin_attack_runs_total"),
		strips:      r.Counter("dehin_attack_target_strips_total"),
		runNs:       r.Histogram("dehin_attack_run_ns"),
	}
}

// queryStats is the scratch-local event tally of one query: candidates
// considered after profile matching, candidates rejected by the degree
// signature, memo probes served/filled, Hopcroft-Karp invocations, and
// profile-only fallbacks taken. Plain (non-atomic) fields: each scratch is
// owned by exactly one goroutine for the duration of a query.
type queryStats struct {
	candidates  int64
	pruned      int64
	memoHits    int64
	memoMisses  int64
	matcherRuns int64
	fallbacks   int64
}

// flush publishes one query's tally and resets it.
func (m *attackMetrics) flush(st *queryStats) {
	m.queries.Inc()
	m.candidates.Add(st.candidates)
	m.pruned.Add(st.pruned)
	m.memoHits.Add(st.memoHits)
	m.memoMisses.Add(st.memoMisses)
	m.matcherRuns.Add(st.matcherRuns)
	m.fallbacks.Add(st.fallbacks)
	*st = queryStats{}
}
