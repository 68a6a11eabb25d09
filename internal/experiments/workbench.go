package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/par"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Workbench builds the shared experimental fixture once: the auxiliary
// network with SamplesPerDensity planted communities per density, the
// released (KDDA-anonymized) target graphs, and a shared candidate index.
//
// Released targets per community and constructed dehin.Attack values per
// configuration are memoized in a thread-safe artifact cache, so the
// experiments never recompute what another already produced, and
// concurrent experiments share one copy. CGA completions are not cached:
// each has one reader (its density's sweep, or utility), so one lives
// only while it is attacked. Every artifact is a pure function of
// (Params, key): releases draw from per-community streams and completions
// from per-target seeds, never from a shared sequential stream, so the
// results are independent of which experiment asks first.
type Workbench struct {
	Params  Params
	Dataset *tqq.Dataset
	Index   *dehin.Index

	// byDensity[i] lists the community indices of Params.Densities[i].
	byDensity [][]int

	targets []slot[*ReleasedTarget] // released targets, one slot per community
	mu      sync.Mutex
	attacks map[string]*slot[*dehin.Attack]

	// obs is never nil: Params.Metrics when provided, else a private
	// registry, so the cache counters (and Stats) work with or without an
	// exposed metrics endpoint. cgaCache only counts completions as
	// misses; its hit counter stays 0.
	obs                                *obs.Registry
	targetCache, cgaCache, attackCache cacheClass
	// tr mirrors Params.Trace (nil = tracing off): cache fills record
	// spans with real durations, cache hits record instant spans, so an
	// exported timeline shows which experiment paid for an artifact and
	// which ones rode along.
	tr *trace.Tracer
}

// ReleasedTarget is one anonymized target graph ready to attack: the graph
// the adversary sees plus the ground truth into the auxiliary dataset.
type ReleasedTarget struct {
	Graph *hin.Graph
	Truth []hin.EntityID
}

// slot memoizes one value: the first get computes it, every other get -
// concurrent ones included - blocks on that computation and shares its
// result.
type slot[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the slot's value, computing it with fill on the first call;
// fresh reports whether this call was the one that computed it.
func (s *slot[T]) get(fill func() (T, error)) (val T, fresh bool, err error) {
	s.once.Do(func() {
		fresh = true
		s.val, s.err = fill()
	})
	return s.val, fresh, s.err
}

// cacheClass is one artifact class of the workbench cache: its resolved
// obs counters (names in OBSERVABILITY.md) and its trace span names.
type cacheClass struct {
	hits, misses *obs.Counter
	fill, hit    string
}

func newCacheClass(r *obs.Registry, name string) cacheClass {
	return cacheClass{
		hits:   r.Counter("workbench_" + name + "_cache_hits_total"),
		misses: r.Counter("workbench_" + name + "_cache_misses_total"),
		fill:   "workbench." + name + "_fill",
		hit:    "workbench." + name + "_hit",
	}
}

// cached returns s's value through the cache class c. The call that fills
// the slot counts a miss and records c's fill span around fill, which
// sets the span's attributes; every other call counts a hit and records
// an instant root span carrying key - the near-zero-width counterpart of
// the fill span, cheap on the hot cache paths because the zero-tracer
// case is one branch.
func cached[T any](w *Workbench, c cacheClass, s *slot[T], key int64, fill func(trace.Span) (T, error)) (T, error) {
	v, fresh, err := s.get(func() (T, error) {
		c.misses.Add(1)
		sp := w.tr.Start(c.fill)
		defer sp.End()
		return fill(sp)
	})
	if !fresh {
		c.hits.Add(1)
		sp := w.tr.Start(c.hit)
		sp.Attr("key", key)
		sp.End()
	}
	return v, err
}

// CacheStats is a point-in-time snapshot of the workbench artifact cache.
// A miss is a computation; a hit is a request served from a completed (or
// in-flight) slot. Completions are never cached, so CGAMisses counts them
// and CGAHits is always 0.
type CacheStats struct {
	TargetHits, TargetMisses int64
	CGAHits, CGAMisses       int64
	AttackHits, AttackMisses int64
}

// Stats snapshots the cache counters. The view is built from one
// stabilized registry snapshot (obs.Registry.Snapshot reads until two
// passes agree), not from six independent atomic loads, so a snapshot
// taken mid-run is internally consistent whenever the cache quiesces even
// briefly and is always monotone against earlier snapshots.
func (w *Workbench) Stats() CacheStats {
	s := w.obs.Snapshot()
	return CacheStats{
		TargetHits:   s.Counter("workbench_target_cache_hits_total"),
		TargetMisses: s.Counter("workbench_target_cache_misses_total"),
		CGAHits:      s.Counter("workbench_cga_cache_hits_total"),
		CGAMisses:    s.Counter("workbench_cga_cache_misses_total"),
		AttackHits:   s.Counter("workbench_attack_cache_hits_total"),
		AttackMisses: s.Counter("workbench_attack_cache_misses_total"),
	}
}

// Metrics returns the registry the workbench records into: the one from
// Params.Metrics, or the workbench-private registry when none was given.
func (w *Workbench) Metrics() *obs.Registry { return w.obs }

// String renders the snapshot as one stderr-friendly line.
func (s CacheStats) String() string {
	return fmt.Sprintf("cache: targets %d hit / %d miss, cga %d hit / %d miss, attacks %d hit / %d miss",
		s.TargetHits, s.TargetMisses, s.CGAHits, s.CGAMisses, s.AttackHits, s.AttackMisses)
}

// NewWorkbench generates the fixture for the given parameters. The
// generator runs sharded on p.Workers workers and every community's
// release is warmed concurrently in the same bounded pool, so the
// workbench comes back fully materialized; output is identical for every
// worker count.
func NewWorkbench(p Params) (*Workbench, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	reg := p.Metrics
	if reg == nil {
		reg = obs.New()
	}
	cfg := tqq.DefaultConfig(p.AuxUsers, p.Seed)
	cfg.Workers = p.Workers
	cfg.Metrics = reg
	cfg.Trace = p.Trace
	cfg.Log = p.Log
	byDensity := make([][]int, len(p.Densities))
	for i, d := range p.Densities {
		for s := 0; s < p.SamplesPerDensity; s++ {
			byDensity[i] = append(byDensity[i], len(cfg.Communities))
			cfg.Communities = append(cfg.Communities, tqq.CommunitySpec{
				Size:    p.TargetSize,
				Density: d,
			})
		}
	}
	ds, err := tqq.Generate(cfg)
	if err != nil {
		return nil, err
	}
	idx, err := dehin.NewIndex(ds.Graph, dehin.TQQProfile())
	if err != nil {
		return nil, err
	}
	w := &Workbench{
		Params:      p,
		Dataset:     ds,
		Index:       idx,
		byDensity:   byDensity,
		targets:     make([]slot[*ReleasedTarget], len(cfg.Communities)),
		attacks:     make(map[string]*slot[*dehin.Attack]),
		obs:         reg,
		targetCache: newCacheClass(reg, "target"),
		cgaCache:    newCacheClass(reg, "cga"),
		attackCache: newCacheClass(reg, "attack"),
		tr:          p.Trace,
	}
	// Warm every release now; experiments then only ever hit the cache.
	nc := len(cfg.Communities)
	warm := w.tr.Start("workbench.warm")
	warm.Attr("communities", int64(nc))
	errs := make([]error, nc)
	par.Run(p.Workers, nc, func(_, ci int) {
		_, errs[ci] = w.target(ci)
	})
	warm.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	p.Log.Info("experiments: workbench ready",
		"users", ds.Graph.NumEntities(), "edges", ds.Graph.NumEdgesTotal(),
		"communities", nc)
	return w, nil
}

// GenConfig returns the tqq generator configuration the workbench used
// (needed by growth experiments).
func (w *Workbench) GenConfig() tqq.Config {
	cfg := tqq.DefaultConfig(w.Params.AuxUsers, w.Params.Seed)
	cfg.Workers = w.Params.Workers
	return cfg
}

// Targets returns the released target graphs for the di-th density:
// community samples, KDDA-anonymized (ids shuffled and relabeled), with
// composed ground truth into the dataset. Results are cached; callers
// across goroutines receive the same shared, read-only values.
func (w *Workbench) Targets(di int) ([]*ReleasedTarget, error) {
	if di < 0 || di >= len(w.byDensity) {
		return nil, fmt.Errorf("experiments: density index %d out of range", di)
	}
	out := make([]*ReleasedTarget, 0, len(w.byDensity[di]))
	for _, ci := range w.byDensity[di] {
		rt, err := w.target(ci)
		if err != nil {
			return nil, err
		}
		out = append(out, rt)
	}
	return out, nil
}

// target returns community ci's released target, computing it at most
// once.
func (w *Workbench) target(ci int) (*ReleasedTarget, error) {
	return cached(w, w.targetCache, &w.targets[ci], int64(ci), func(sp trace.Span) (*ReleasedTarget, error) {
		sp.Attr("community", int64(ci))
		return w.releaseCommunity(ci)
	})
}

// CompletedTargets returns the di-th density's released targets hardened
// with Complete Graph Anonymity (varying fake weights when varyWeights).
// Completion seeds are a pure function of the target's (density, sample)
// position, so every call completes the same graphs afresh. Nothing is
// cached: a completion lives only while its caller holds it, and each
// counts one cga miss.
func (w *Workbench) CompletedTargets(di int, varyWeights bool) ([]*ReleasedTarget, error) {
	if di < 0 || di >= len(w.byDensity) {
		return nil, fmt.Errorf("experiments: density index %d out of range", di)
	}
	vw := int64(0)
	if varyWeights {
		vw = 1
	}
	strengthMax := w.GenConfig().StrengthMax
	out := make([]*ReleasedTarget, 0, len(w.byDensity[di]))
	for ti, ci := range w.byDensity[di] {
		rt, err := w.target(ci)
		if err != nil {
			return nil, err
		}
		w.cgaCache.misses.Add(1)
		sp := w.tr.Start(w.cgaCache.fill)
		sp.Attr("community", int64(ci))
		sp.Attr("vary_weights", vw)
		cg, err := anonymize.CompleteGraph(rt.Graph, anonymize.CGAOptions{
			VaryWeights: varyWeights,
			StrengthMax: strengthMax,
			Seed:        w.Params.Seed + uint64(di*100+ti),
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		out = append(out, &ReleasedTarget{Graph: cg, Truth: rt.Truth})
	}
	return out, nil
}

// releaseCommunity samples community ci and anonymizes it KDDA-style. The
// randomness is a pure function of (Params.Seed, ci), never of call
// order, which is what lets releases be computed lazily, concurrently, or
// warmed up front with identical results.
func (w *Workbench) releaseCommunity(ci int) (*ReleasedTarget, error) {
	rng := randx.New(w.Params.Seed).Split(uint64(1000 + ci))
	tgt, err := tqq.CommunityTarget(w.Dataset, ci, rng)
	if err != nil {
		return nil, err
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, w.Params.Seed+uint64(77+ci))
	if err != nil {
		return nil, err
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	return &ReleasedTarget{Graph: anon.Graph, Truth: truth}, nil
}

// Attack builds a DeHIN attack against the workbench's auxiliary network,
// sharing the prebuilt index. Attacks for func-free configurations are
// memoized by configuration value - dehin.Attack is safe for concurrent
// use, so one instance serves every experiment that asks for the same
// setup (table2 alone asks for each distance configuration once per
// density). Configurations carrying custom EntityMatch/LinkMatch funcs
// are not comparable and bypass the cache.
func (w *Workbench) Attack(cfg dehin.Config) (*dehin.Attack, error) {
	cfg.Profile = dehin.TQQProfile()
	cfg.SharedIndex = w.Index
	if cfg.Parallelism == 0 {
		cfg.Parallelism = w.Params.Parallelism
	}
	if cfg.Metrics == nil {
		// Instrument attacks only when the caller asked for an exposed
		// registry: the private workbench registry records cache traffic
		// (cold path) but must not tax the query hot path by default.
		cfg.Metrics = w.Params.Metrics
	}
	if cfg.Trace == nil {
		// Attacks inherit the pipeline tracer so Run spans (and sampled
		// query spans) appear in the suite timeline.
		cfg.Trace = w.Params.Trace
	}
	if cfg.EntityMatch != nil || cfg.LinkMatch != nil {
		return dehin.NewAttack(w.Dataset.Graph, cfg)
	}
	key := attackKey(cfg)
	w.mu.Lock()
	s, ok := w.attacks[key]
	if !ok {
		s = &slot[*dehin.Attack]{}
		w.attacks[key] = s
	}
	w.mu.Unlock()
	return cached(w, w.attackCache, s, int64(cfg.MaxDistance), func(sp trace.Span) (*dehin.Attack, error) {
		sp.Attr("distance", int64(cfg.MaxDistance))
		sp.Attr("link_types", int64(len(cfg.LinkTypes)))
		return dehin.NewAttack(w.Dataset.Graph, cfg)
	})
}

// attackKey canonicalizes the comparable dehin.Config fields. Profile and
// SharedIndex are workbench-constant and excluded; Metrics and Trace are
// part of the key because they are baked into the constructed attack.
func attackKey(cfg dehin.Config) string {
	lts := make([]int, len(cfg.LinkTypes))
	for i, lt := range cfg.LinkTypes {
		lts[i] = int(lt)
	}
	sort.Ints(lts)
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d lt=%v maj=%t fb=%t in=%t tol=%g idx=%t par=%d met=%p tr=%p",
		cfg.MaxDistance, lts, cfg.RemoveMajorityStrength, cfg.FallbackProfileOnly,
		cfg.UseInEdges, cfg.NeighborTolerance, cfg.UseIndex, cfg.Parallelism,
		cfg.Metrics, cfg.Trace)
	return b.String()
}

// averageRun attacks every released target with the given attack and
// averages precision and reduction rate.
func averageRun(a *dehin.Attack, targets []*ReleasedTarget) (precision, reduction float64, err error) {
	return average(len(targets), func(i int) (dehin.Result, error) {
		return a.Run(targets[i].Graph, targets[i].Truth)
	})
}

// average runs attack(i) for each of n targets in index order and
// averages the results' precision and reduction rate.
func average(n int, attack func(i int) (dehin.Result, error)) (precision, reduction float64, err error) {
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: no targets")
	}
	for i := 0; i < n; i++ {
		res, err := attack(i)
		if err != nil {
			return 0, 0, err
		}
		precision += res.Precision
		reduction += res.ReductionRate
	}
	return precision / float64(n), reduction / float64(n), nil
}
