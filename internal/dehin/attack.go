package dehin

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
)

// Config parameterizes the DeHIN attack.
type Config struct {
	// MaxDistance is n, the maximum distance of utilized neighbors:
	// 0 compares profiles only; d > 0 recursively compares typed
	// neighborhoods to depth d.
	MaxDistance int
	// LinkTypes are the target-network-schema link types to utilize;
	// both graphs must share the schema. Empty means all link types.
	LinkTypes []hin.LinkTypeID
	// Profile declares how profile attributes match; it also powers the
	// candidate index. Leave zero only if EntityMatch and a full scan are
	// acceptable.
	Profile ProfileSpec
	// EntityMatch overrides the profile-derived matcher (optional).
	EntityMatch EntityMatcher
	// LinkMatch compares strengths; nil means GrowthLinkMatcher.
	LinkMatch LinkMatcher
	// UseIndex enables the (gender, yob, ...)-bucketed candidate index.
	// It requires EntityMatch to imply equality on Profile.ExactAttrs and
	// auxiliary >= target on the first Profile.GrowAttrs entry, which
	// holds for the built-in matchers. Disable for exotic matchers.
	UseIndex bool
	// SharedIndex supplies a prebuilt index (see NewIndex) so many attack
	// configurations over the same auxiliary graph can share one. It must
	// have been built from the same graph and ProfileSpec.
	SharedIndex *Index
	// RemoveMajorityStrength preprocesses the target graph by deleting,
	// per link type, every edge carrying that type's majority strength -
	// the re-configured DeHIN of Section 6.2 that strips Complete Graph
	// Anonymity's fake links (and, unavoidably, real links sharing the
	// majority value; unweighted link types lose all edges).
	RemoveMajorityStrength bool
	// FallbackProfileOnly degrades a target whose neighbor matching
	// eliminates every profile candidate to its profile-only candidate
	// set. This is the rational adversary's response to Varying Weight
	// CGA - neighborhoods are unusable, so n collapses to 0 - and
	// reproduces Figure 8's flat VW-CGA curves.
	FallbackProfileOnly bool
	// UseInEdges additionally requires in-neighborhoods to match - an
	// extension beyond the paper's out-link feature expansion.
	UseInEdges bool
	// NeighborTolerance relaxes Algorithm 2 (an extension beyond the
	// paper): instead of every target neighbor needing a distinct match,
	// only ceil((1-tolerance) * |N_b|) per link type and direction must
	// be matched. Zero reproduces the paper exactly; positive values are
	// the rational adversary's response to edge-perturbation defenses,
	// which delete or rewire a fraction of real links and would
	// otherwise eliminate the true counterpart.
	NeighborTolerance float64
	// Parallelism bounds concurrent target queries in Run; 0 means
	// GOMAXPROCS.
	Parallelism int
	// Metrics attaches the attack to an observability registry
	// (internal/obs): candidates considered, degree-pruned rejections,
	// memo hits/misses, matcher invocations, and per-Run wall time. Nil
	// (the default) disables instrumentation entirely; the query hot path
	// then pays a single predictable branch per query (see DESIGN.md
	// §5.2). Metric names are listed in OBSERVABILITY.md.
	Metrics *obs.Registry
	// Trace attaches Run to a span tracer (internal/obs/trace): one span
	// per Run on its own lane per worker, plus SAMPLED per-query child
	// spans (every querySampleEvery-th query, at most querySampleCap per
	// Run) broken into profile_candidates / degree_prune / neighbor_match
	// stages, so a 12k-target trace stays bounded. Nil (the default)
	// disables tracing; the single-query paths (Deanonymize,
	// DeanonymizeAppend) are never traced, preserving their
	// zero-allocation guarantee bit for bit.
	Trace *trace.Tracer
}

// Attack is a DeHIN attacker bound to one auxiliary graph. It is safe for
// concurrent use once built: per-query working memory lives in pooled
// queryScratch instances, never in the Attack itself.
type Attack struct {
	aux     hin.GraphBackend
	cfg     Config
	em      EntityMatcher
	lm      LinkMatcher
	index   *profileIndex
	deg     *degSignature  // nil when degree pruning is disabled
	met     *attackMetrics // nil when Config.Metrics is nil
	scratch sync.Pool      // *queryScratch
}

// NewAttack prepares an attack against the given auxiliary graph.
func NewAttack(aux hin.GraphBackend, cfg Config) (*Attack, error) {
	if cfg.MaxDistance < 0 {
		return nil, fmt.Errorf("dehin: negative MaxDistance")
	}
	if cfg.NeighborTolerance < 0 || cfg.NeighborTolerance >= 1 {
		return nil, fmt.Errorf("dehin: NeighborTolerance %g out of [0,1)", cfg.NeighborTolerance)
	}
	if len(cfg.LinkTypes) == 0 {
		for i := 0; i < aux.Schema().NumLinkTypes(); i++ {
			cfg.LinkTypes = append(cfg.LinkTypes, hin.LinkTypeID(i))
		}
	}
	for _, lt := range cfg.LinkTypes {
		if int(lt) >= aux.Schema().NumLinkTypes() {
			return nil, fmt.Errorf("dehin: link type %d out of range", lt)
		}
	}
	a := &Attack{aux: aux, cfg: cfg, met: newAttackMetrics(cfg.Metrics)}
	a.em = cfg.EntityMatch
	if a.em == nil {
		// The profile spec drives attribute reads on both graphs; validate
		// it against the shared schema up front so a bad index surfaces
		// here instead of as garbage reads or silently empty candidate
		// sets at query time.
		if err := validateProfileSpec(aux.Schema(), cfg.Profile); err != nil {
			return nil, err
		}
		a.em = cfg.Profile.GrowthMatcher()
	}
	a.lm = cfg.LinkMatch
	if a.lm == nil {
		a.lm = GrowthLinkMatcher
	}
	switch {
	case cfg.SharedIndex != nil:
		if cfg.SharedIndex.idx.aux != aux {
			return nil, fmt.Errorf("dehin: SharedIndex was built from a different auxiliary graph")
		}
		a.index = cfg.SharedIndex.idx
	case cfg.UseIndex:
		// The build runs on the same pool size the queries will; the
		// index contents are identical at any parallelism.
		idx, err := buildProfileIndex(aux, cfg.Profile, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
		a.index = idx
	}
	// Degree-signature pruning is sound whenever the per-type quota
	// directionMatch enforces is the plain neighbor count (see the
	// degSignature soundness note); conservatively gate it off for
	// re-configured (majority-strength-removed) attacks and custom
	// matchers so the pruned engine provably matches reference semantics.
	if cfg.MaxDistance > 0 && !cfg.RemoveMajorityStrength &&
		cfg.EntityMatch == nil && cfg.LinkMatch == nil {
		a.deg = buildDegSignature(aux, cfg.LinkTypes, cfg.UseInEdges)
	}
	return a, nil
}

// Index is a reusable profile candidate index over one auxiliary graph.
type Index struct {
	idx *profileIndex
}

// NewIndex builds a candidate index for the given auxiliary graph and
// profile specification, shareable across attacks via Config.SharedIndex.
// The build is sharded across all cores; the result does not depend on
// the core count.
func NewIndex(aux hin.GraphBackend, spec ProfileSpec) (*Index, error) {
	idx, err := buildProfileIndex(aux, spec, 0)
	if err != nil {
		return nil, err
	}
	return &Index{idx: idx}, nil
}

// Aux returns the auxiliary graph the attack is bound to.
func (a *Attack) Aux() hin.GraphBackend { return a.aux }

// PrepareTarget applies the attack-side preprocessing to a released target
// graph (currently majority-strength removal when configured) and returns
// the graph the matching will actually run on.
func (a *Attack) PrepareTarget(target hin.GraphBackend) (hin.GraphBackend, error) {
	if !a.cfg.RemoveMajorityStrength {
		return target, nil
	}
	g, err := RemoveMajorityStrengthEdges(target)
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (a *Attack) getScratch() *queryScratch {
	if s, ok := a.scratch.Get().(*queryScratch); ok {
		return s
	}
	return &queryScratch{}
}

func (a *Attack) putScratch(s *queryScratch) { a.scratch.Put(s) }

// Deanonymize runs Algorithm 1 for one target entity against the prepared
// target graph, returning the candidate set of auxiliary entities. The
// caller is responsible for having applied PrepareTarget.
func (a *Attack) Deanonymize(target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	return a.DeanonymizeAppend(nil, target, tv)
}

// DeanonymizeAppend is Deanonymize appending into dst (which may be nil),
// returning the extended slice. Reusing dst across queries makes a
// steady-state query allocation-free: all internal working memory is
// pooled and the result lands in the caller's buffer.
func (a *Attack) DeanonymizeAppend(dst []hin.EntityID, target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	s := a.getScratch()
	dst = a.deanonymize(s, dst, target, tv)
	a.putScratch(s)
	return dst
}

// DeanonymizeSpan is Deanonymize carrying a caller-provided query span:
// when qs is active the query records the same profile_candidates /
// degree_prune / neighbor_match stage children that Run's sampled
// queries get, parented under qs — this is how the serving layer's
// per-request flight recorder sees inside an attack. An inactive span
// (the zero Span) makes this exactly Deanonymize, so the plain
// single-query paths stay untraced and allocation-free.
func (a *Attack) DeanonymizeSpan(target hin.GraphBackend, tv hin.EntityID, qs trace.Span) []hin.EntityID {
	s := a.getScratch()
	dst := a.deanonymizeTraced(s, nil, target, tv, qs)
	a.putScratch(s)
	return dst
}

// ensureMemo (re)binds the scratch's memo table to the given prepared
// target graph. Memoized results - linkMatch verdicts at depths >= 1 and
// entity-matcher verdicts at depth 0 - are pure functions of (target
// graph, auxiliary graph, config), so they stay valid for the lifetime of
// the (attack, target graph) pair: the table resets only when the scratch
// sees a different graph. This is what lets a whole Run (500 queries
// against one release) amortize the depth-1 neighborhood recursion that
// different targets share.
func (a *Attack) ensureMemo(s *queryScratch, target hin.GraphBackend) {
	if s.memoTarget == target {
		return
	}
	s.memo.reset(memoPackable(target, a.aux, a.cfg.MaxDistance))
	s.memoTarget = target
}

// emCached is the entity matcher memoized per (target entity, auxiliary
// entity) as depth-0 entries of the query memo. The matcher compares
// attribute tuples (several Graph.Attr reads per call) and the same
// neighbor pair is re-examined once per link type, direction, and parent
// pair, so a table probe is substantially cheaper than re-evaluating it.
//
//hin:hot
func (a *Attack) emCached(s *queryScratch, target hin.GraphBackend, tb, ab hin.EntityID) bool {
	if r, ok := s.memo.get(tb, ab, 0); ok {
		s.stats.memoHits++
		return r
	}
	r := a.em(target, a.aux, tb, ab)
	s.memo.put(tb, ab, 0, r)
	s.stats.memoMisses++
	return r
}

// deanonymize is the per-query entry point: the uninstrumented core plus,
// when a metrics registry is attached, one batched flush of the query's
// scratch-local event tally. The disabled path costs exactly this one
// predictable branch (the zero Span inside the core adds only dead
// single-branch no-ops).
func (a *Attack) deanonymize(s *queryScratch, dst []hin.EntityID, target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	if a.met == nil {
		return a.deanonymizeCore(s, dst, target, tv, trace.Span{})
	}
	s.stats = queryStats{}
	dst = a.deanonymizeCore(s, dst, target, tv, trace.Span{})
	a.met.flush(&s.stats)
	return dst
}

// deanonymizeTraced is deanonymize carrying a live query span, used only
// for the queries Run samples. An inactive span falls through to the
// untraced path so callers need not branch.
func (a *Attack) deanonymizeTraced(s *queryScratch, dst []hin.EntityID, target hin.GraphBackend, tv hin.EntityID, qs trace.Span) []hin.EntityID {
	if !qs.Active() {
		return a.deanonymize(s, dst, target, tv)
	}
	if a.met == nil {
		return a.deanonymizeCore(s, dst, target, tv, qs)
	}
	s.stats = queryStats{}
	dst = a.deanonymizeCore(s, dst, target, tv, qs)
	a.met.flush(&s.stats)
	return dst
}

// deanonymizeCore runs Algorithm 1 for one target. qs, when active, is the
// sampled query span whose stage children record where the query's time
// went; the zero Span (the usual case) makes every trace call a
// predictable no-op branch.
//
//hin:hot
func (a *Attack) deanonymizeCore(s *queryScratch, dst []hin.EntityID, target hin.GraphBackend, tv hin.EntityID, qs trace.Span) []hin.EntityID {
	ps := qs.Child("profile_candidates")
	profile := a.profileCandidates(s, target, tv)
	ps.Attr("candidates", int64(len(profile)))
	ps.End()
	s.stats.candidates += int64(len(profile))
	if a.cfg.MaxDistance == 0 || len(profile) == 0 {
		return append(dst, profile...)
	}
	a.ensureMemo(s, target)
	prune := a.deg != nil
	if prune {
		dp := qs.Child("degree_prune")
		a.computeNeeds(s, target, tv)
		dp.End()
	}
	ms := qs.Child("neighbor_match")
	base := len(dst)
	pruned := int64(0)
	for _, av := range profile {
		// A candidate the degree signature rejects is one Algorithm 2
		// would reject; skipping it here keeps FallbackProfileOnly
		// semantics identical (it still counts as a neighbor-stage
		// elimination, not a profile-stage one).
		if prune && !a.deg.admits(s.needs, av) {
			pruned++
			continue
		}
		if a.linkMatch(s, target, a.cfg.MaxDistance, tv, av) {
			dst = append(dst, av)
		}
	}
	s.stats.pruned += pruned
	ms.Attr("pruned", pruned)
	ms.Attr("survivors", int64(len(dst)-base))
	ms.End()
	if len(dst) == base && a.cfg.FallbackProfileOnly {
		s.stats.fallbacks++
		return append(dst, profile...)
	}
	return dst
}

// profileCandidates implements the entity_attribute_match stage of
// Algorithm 1, via the index when available. The result lives in s.cand
// and is valid until the scratch's next query.
//
//hin:hot
func (a *Attack) profileCandidates(s *queryScratch, target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	out := s.cand[:0]
	if a.index != nil {
		for _, av := range a.index.lookup(target, tv) {
			if a.em(target, a.aux, tv, av) {
				out = append(out, av)
			}
		}
		slices.Sort(out)
	} else {
		for av := 0; av < a.aux.NumEntities(); av++ {
			if a.em(target, a.aux, tv, hin.EntityID(av)) {
				out = append(out, hin.EntityID(av))
			}
		}
	}
	s.cand = out
	return out
}

// quota returns how many of deg target neighbors must find distinct
// matches under the configured tolerance.
func (a *Attack) quota(deg int) int {
	if a.cfg.NeighborTolerance <= 0 {
		return deg
	}
	// Round the allowance up so small neighborhoods get at least one
	// forgivable edge - a 10-edge neighborhood at 7% tolerance must
	// still tolerate a single fake.
	return deg - int(math.Ceil(a.cfg.NeighborTolerance*float64(deg)))
}

// linkMatch is Algorithm 2: do the typed neighborhoods of target entity tv
// and auxiliary entity av match to depth n? For each utilized link type,
// every target neighbor needs a distinct compatible auxiliary neighbor -
// a perfect left matching in the bipartite candidate graph. Extra
// auxiliary neighbors are tolerated as links grown during the time gap.
//
// The paper's pseudocode recurses with the original pair (v', v); the
// evident intent - and what makes distance-n meaningful - is to recurse on
// the neighbor pair (b'_i, b_i), which is what this does. Results are
// memoized per (target, candidate, depth) across the whole query.
//
//hin:hot
func (a *Attack) linkMatch(s *queryScratch, target hin.GraphBackend, n int, tv, av hin.EntityID) bool {
	if r, ok := s.memo.get(tv, av, n); ok {
		s.stats.memoHits++
		return r
	}
	res := a.linkMatchUncached(s, target, n, tv, av)
	s.memo.put(tv, av, n, res)
	s.stats.memoMisses++
	return res
}

//hin:hot
func (a *Attack) linkMatchUncached(s *queryScratch, target hin.GraphBackend, n int, tv, av hin.EntityID) bool {
	for _, lt := range a.cfg.LinkTypes {
		if !a.directionMatch(s, target, n, tv, av, lt, false) {
			return false
		}
		if a.cfg.UseInEdges && !a.directionMatch(s, target, n, tv, av, lt, true) {
			return false
		}
	}
	return true
}

// directionMatch checks one link type in one direction, building the
// bipartite compatibility graph into the scratch frame of this recursion
// depth (deeper linkMatch calls use deeper frames, so the build never
// clobbers an in-progress one).
//
//hin:hot
func (a *Attack) directionMatch(s *queryScratch, target hin.GraphBackend, n int, tv, av hin.EntityID, lt hin.LinkTypeID, inEdges bool) bool {
	// The frame is claimed before any row decode: its pooled tbuf/abuf
	// cursors hold the decoded rows for this depth, and deeper recursion
	// uses deeper frames, so the rows below stay valid across the loop.
	f := s.frame(n)
	var tns []hin.EntityID
	var tws []int32
	if inEdges {
		tns, tws = target.InEdgesBuf(&f.tbuf, lt, tv)
	} else {
		tns, tws = target.OutEdgesBuf(&f.tbuf, lt, tv)
	}
	need := a.quota(len(tns))
	if need <= 0 || len(tns) == 0 {
		return true
	}
	var ans []hin.EntityID
	var aws []int32
	if inEdges {
		if need > a.aux.InDegree(lt, av) {
			// Even a maximum matching cannot reach the quota; checked
			// against the degree so the auxiliary row is never decoded.
			return false
		}
		ans, aws = a.aux.InEdgesBuf(&f.abuf, lt, av)
	} else {
		if need > a.aux.OutDegree(lt, av) {
			return false
		}
		ans, aws = a.aux.OutEdgesBuf(&f.abuf, lt, av)
	}
	f.reset()
	empties := 0
	for i, tb := range tns {
		row := len(f.dat)
		for j, ab := range ans {
			if !a.lm(tws[i], aws[j]) {
				continue
			}
			if !a.emCached(s, target, tb, ab) {
				continue
			}
			if n > 1 && !a.linkMatch(s, target, n-1, tb, ab) {
				continue
			}
			f.dat = append(f.dat, int32(j))
		}
		if len(f.dat) == row {
			empties++
			if len(tns)-empties < need {
				return false
			}
		}
		f.closeRow()
	}
	//hin:allow hotpath -- pooled growth: graph (inlined) reallocates f.rows only past the frame's high-water mark
	g := f.graph(len(ans))
	s.stats.matcherRuns++
	if need == len(tns) {
		return s.matcher.HasPerfectLeftMatching(g)
	}
	return s.matcher.Match(g) >= need
}

// RemoveMajorityStrengthEdges returns a copy of g without, per link type,
// the edges carrying that type's most frequent strength. On an unweighted
// link type every edge carries strength 1, so the whole type is dropped -
// which is what completing the follow graph costs the defender's victim
// (Section 6.2).
func RemoveMajorityStrengthEdges(g hin.GraphBackend) (*hin.Graph, error) {
	schema := g.Schema()
	b := hin.NewBuilder(schema)
	n := g.NumEntities()
	var attrs []int64
	for i := 0; i < n; i++ {
		id := hin.EntityID(i)
		attrs = g.AppendAttrs(attrs[:0], id)
		b.AddEntity(g.EntityType(id), g.Label(id), attrs...)
		for _, sa := range schema.EntityType(g.EntityType(id)).SetAttrs {
			if s := g.Set(sa, id); len(s) > 0 {
				b.SetSet(sa, id, s)
			}
		}
	}
	buf := &hin.EdgeBuf{}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		maj, _, ok := hin.MajorityStrength(g, ltid)
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdgesBuf(buf, ltid, hin.EntityID(v))
			for j, to := range tos {
				if ok && ws[j] == maj {
					continue
				}
				if err := b.AddEdge(ltid, hin.EntityID(v), to, ws[j]); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

// Query-span sampling policy for Run (see Config.Trace): trace every
// querySampleEvery-th query, never more than querySampleCap per Run.
const (
	querySampleEvery = 64
	querySampleCap   = 256
)

// TargetOutcome records the attack's result on one target entity.
type TargetOutcome struct {
	// Candidates is |C(v')|, the candidate set size.
	Candidates int
	// Unique reports |C| == 1; Correct that the unique candidate is the
	// true counterpart.
	Unique, Correct bool
}

// Result aggregates an attack over a whole target graph with the paper's
// two metrics (Section 6.1).
type Result struct {
	// Precision is the fraction of targets de-anonymized by a unique,
	// correct matching.
	Precision float64
	// ReductionRate is the mean of 1 - |C(v')| / |V| over targets.
	ReductionRate float64
	// PerTarget holds each target entity's outcome, indexed like the
	// target graph.
	PerTarget []TargetOutcome
}

// Run executes the attack on every entity of the released target graph.
// truth[i] names the auxiliary entity actually behind target entity i and
// is used only for scoring. PrepareTarget preprocessing is applied
// automatically.
//
// Work is distributed by chunked work stealing over targets ordered by
// descending utilized degree: expensive hub entities are handed out first
// and a worker stuck on one cannot strand queued work behind it, so the
// tail of a Run stays balanced. A zero-entity target yields zero metrics
// (not NaN) and no error.
func (a *Attack) Run(target hin.GraphBackend, truth []hin.EntityID) (Result, error) {
	if len(truth) != target.NumEntities() {
		return Result{}, fmt.Errorf("dehin: truth size %d != %d targets", len(truth), target.NumEntities())
	}
	prepared, err := a.PrepareTarget(target)
	if err != nil {
		return Result{}, err
	}
	if a.met != nil {
		a.met.runs.Inc()
		t := a.met.runNs.Time()
		defer t.Stop()
	}
	n := prepared.NumEntities()
	out := Result{PerTarget: make([]TargetOutcome, n)}
	if n == 0 {
		return out, nil
	}
	workers := a.cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Tracing: one lane per worker so sampled query spans land on stable
	// timeline rows; a shared counter samples every querySampleEvery-th
	// query up to querySampleCap, keeping large-target traces bounded.
	root := a.cfg.Trace.Start("dehin.run")
	root.Attr("targets", int64(n))
	root.Attr("workers", int64(workers))
	defer root.End()
	var lanes []trace.Track
	if a.cfg.Trace != nil {
		lanes = make([]trace.Track, workers)
		for i := range lanes {
			lanes[i] = a.cfg.Trace.NewTrack()
		}
	}
	var qSeen, qSampled atomic.Int64

	order := a.runOrder(prepared)
	// Small chunks amortize the atomic fetch without re-creating the
	// convoy a static partition (or one target per channel send) causes
	// when a single hub query dominates.
	chunk := max(1, min(64, n/(workers*8)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a.getScratch()
			defer a.putScratch(s)
			var buf []hin.EntityID
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				for _, tv32 := range order[start:min(start+chunk, n)] {
					tv := hin.EntityID(tv32)
					var sp trace.Span
					if lanes != nil {
						if k := qSeen.Add(1); (k-1)%querySampleEvery == 0 &&
							qSampled.Add(1) <= querySampleCap {
							sp = root.ChildOn(lanes[w], "query")
							sp.Attr("target", int64(tv))
						}
					}
					buf = a.deanonymizeTraced(s, buf[:0], prepared, tv, sp)
					if sp.Active() {
						sp.Attr("candidates", int64(len(buf)))
						sp.End()
					}
					o := TargetOutcome{Candidates: len(buf)}
					if len(buf) == 1 {
						o.Unique = true
						o.Correct = buf[0] == truth[tv]
					}
					out.PerTarget[tv] = o
				}
			}
		}(w)
	}
	wg.Wait()

	auxN := float64(a.aux.NumEntities())
	correct, reduction := 0, 0.0
	for _, o := range out.PerTarget {
		if o.Correct {
			correct++
		}
		if auxN > 0 {
			reduction += 1 - float64(o.Candidates)/auxN
		}
	}
	out.Precision = float64(correct) / float64(n)
	out.ReductionRate = reduction / float64(n)
	return out, nil
}

// runOrder returns the target entities sorted by descending total utilized
// degree (ties by ascending id, keeping the order deterministic).
func (a *Attack) runOrder(prepared hin.GraphBackend) []int32 {
	n := prepared.NumEntities()
	total := make([]int64, n)
	var deg []int32
	for _, lt := range a.cfg.LinkTypes {
		deg = prepared.OutDegrees(lt, deg[:0])
		for v, d := range deg {
			total[v] += int64(d)
		}
		if a.cfg.UseInEdges {
			deg = prepared.InDegrees(lt, deg[:0])
			for v, d := range deg {
				total[v] += int64(d)
			}
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if total[x] != total[y] {
			if total[x] > total[y] {
				return -1
			}
			return 1
		}
		return int(x) - int(y)
	})
	return order
}
