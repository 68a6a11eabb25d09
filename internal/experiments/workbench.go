package experiments

import (
	"fmt"

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
// Every release is built by NewWorkbench and read-only afterwards, so
// concurrent experiments share one copy. Nothing else is kept: CGA
// completions and dehin.Attack values are built on every call, by the
// sweep that uses them. Every artifact is a pure function of (Params,
// key): releases draw from per-community streams and completions from
// per-target seeds, never from a shared sequential stream, so the results
// are independent of which experiment asks first.
type Workbench struct {
	Params  Params
	Dataset *tqq.Dataset
	Index   *dehin.Index

	// byDensity[i] lists the community indices of Params.Densities[i].
	byDensity [][]int
	// targets[ci] is community ci's released target.
	targets []*ReleasedTarget

	// The build counters (names in OBSERVABILITY.md) live in
	// Params.Metrics when provided, else in a private registry, so Stats
	// works with or without an exposed metrics endpoint.
	releases, completions, attacks *obs.Counter
	// tr mirrors Params.Trace (nil = tracing off): every build records a
	// span, so an exported timeline shows which experiment paid for it.
	tr *trace.Tracer
}

// ReleasedTarget is one anonymized target graph ready to attack: the graph
// the adversary sees plus the ground truth into the auxiliary dataset.
type ReleasedTarget struct {
	Graph *hin.Graph
	Truth []hin.EntityID
}

// CacheStats counts the artifacts a workbench built. The workbench caches
// nothing, so each Misses field counts builds (releases, CGA completions,
// attacks) and each Hits field is always 0.
type CacheStats struct {
	TargetHits, TargetMisses int64
	CGAHits, CGAMisses       int64
	AttackHits, AttackMisses int64
}

// Stats reads the build counters.
func (w *Workbench) Stats() CacheStats {
	return CacheStats{
		TargetMisses: w.releases.Value(),
		CGAMisses:    w.completions.Value(),
		AttackMisses: w.attacks.Value(),
	}
}

// String renders the snapshot as one stderr-friendly line.
func (s CacheStats) String() string {
	return fmt.Sprintf("workbench: %d releases, %d completions, %d attacks",
		s.TargetMisses, s.CGAMisses, s.AttackMisses)
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
	nc := len(cfg.Communities)
	w := &Workbench{
		Params:      p,
		Dataset:     ds,
		Index:       idx,
		byDensity:   byDensity,
		targets:     make([]*ReleasedTarget, nc),
		releases:    reg.Counter("workbench_releases_total"),
		completions: reg.Counter("workbench_completions_total"),
		attacks:     reg.Counter("workbench_attacks_total"),
		tr:          p.Trace,
	}
	warm := w.tr.Start("workbench.warm")
	warm.Attr("communities", int64(nc))
	errs := make([]error, nc)
	par.Run(p.Workers, nc, func(_, ci int) {
		w.releases.Add(1)
		sp := w.tr.Start("workbench.target_fill")
		sp.Attr("community", int64(ci))
		w.targets[ci], errs[ci] = w.releaseCommunity(ci)
		sp.End()
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
// composed ground truth into the dataset. Callers across goroutines
// receive the same shared, read-only values.
func (w *Workbench) Targets(di int) ([]*ReleasedTarget, error) {
	if di < 0 || di >= len(w.byDensity) {
		return nil, fmt.Errorf("experiments: density index %d out of range", di)
	}
	out := make([]*ReleasedTarget, len(w.byDensity[di]))
	for i, ci := range w.byDensity[di] {
		out[i] = w.targets[ci]
	}
	return out, nil
}

// CompletedTargets returns the di-th density's released targets hardened
// with Complete Graph Anonymity (varying fake weights when varyWeights).
// Completion seeds are a pure function of the target's (density, sample)
// position, so every call completes the same graphs afresh; a completion
// lives only while its caller holds it.
func (w *Workbench) CompletedTargets(di int, varyWeights bool) ([]*ReleasedTarget, error) {
	targets, err := w.Targets(di)
	if err != nil {
		return nil, err
	}
	vw := int64(0)
	if varyWeights {
		vw = 1
	}
	strengthMax := w.GenConfig().StrengthMax
	out := make([]*ReleasedTarget, len(targets))
	for ti, rt := range targets {
		w.completions.Add(1)
		sp := w.tr.Start("workbench.cga_fill")
		sp.Attr("community", int64(w.byDensity[di][ti]))
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
		out[ti] = &ReleasedTarget{Graph: cg, Truth: rt.Truth}
	}
	return out, nil
}

// releaseCommunity samples community ci and anonymizes it KDDA-style. The
// randomness is a pure function of (Params.Seed, ci), never of call
// order, which is what lets NewWorkbench build the releases concurrently
// with identical results.
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
// sharing the prebuilt index. Every call builds a new attack; a sweep that
// runs one configuration on several densities builds it once, before its
// loop.
func (w *Workbench) Attack(cfg dehin.Config) (*dehin.Attack, error) {
	cfg.Profile = dehin.TQQProfile()
	cfg.SharedIndex = w.Index
	if cfg.Parallelism == 0 {
		cfg.Parallelism = w.Params.Parallelism
	}
	if cfg.Metrics == nil {
		// Instrument attacks only when the caller asked for an exposed
		// registry: the private workbench registry records builds (cold
		// path) but must not tax the query hot path by default.
		cfg.Metrics = w.Params.Metrics
	}
	if cfg.Trace == nil {
		// Attacks inherit the pipeline tracer so Run spans (and sampled
		// query spans) appear in the suite timeline.
		cfg.Trace = w.Params.Trace
	}
	w.attacks.Add(1)
	sp := w.tr.Start("workbench.attack_fill")
	sp.Attr("distance", int64(cfg.MaxDistance))
	sp.Attr("link_types", int64(len(cfg.LinkTypes)))
	defer sp.End()
	return dehin.NewAttack(w.Dataset.Graph, cfg)
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
