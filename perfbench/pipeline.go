package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Pipeline size: the paper's experiment (Section 6) at a size this
// benchmark's budget holds four times per run - 150k users with four
// planted 1000-user communities at density 0.01, about 4M links.
const (
	pipelineUsers       = 150000
	pipelineCommunities = 4
	communitySize       = 1000
	communityDensity    = 0.01
	attackDistance      = 2
	sweepDistance       = 2
)

// pipelineOut is everything the pipeline computes that the oracle checks.
type pipelineOut struct {
	Edges int64 `json:"edges"`
	// Precision and Reduction hold one entry per plain release, then the
	// reconfigured attack on the CGA release.
	Precision   []float64 `json:"precision"`
	Reduction   []float64 `json:"reduction"`
	Risk        []float64 `json:"risk"`
	Cardinality []int     `json:"cardinality"`
}

type release struct {
	graph *hin.Graph
	truth []hin.EntityID
}

func pipelineConfig(users int, seed uint64) tqq.Config {
	cfg := tqq.DefaultConfig(users, seed)
	for i := 0; i < pipelineCommunities; i++ {
		cfg.Communities = append(cfg.Communities, tqq.CommunitySpec{Size: communitySize, Density: communityDensity})
	}
	return cfg
}

// releaseCommunity samples planted community ci and anonymizes it the
// way the workbench does: shuffled members, randomized ids and labels.
func releaseCommunity(ds *tqq.Dataset, ci int, seed uint64) (release, error) {
	tgt, err := tqq.CommunityTarget(ds, ci, randx.New(seed).Split(uint64(1000+ci)))
	if err != nil {
		return release{}, err
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, seed+uint64(77+ci))
	if err != nil {
		return release{}, err
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	return release{anon.Graph, truth}, nil
}

func allLinkTypes(s *hin.Schema) []hin.LinkTypeID {
	lts := make([]hin.LinkTypeID, s.NumLinkTypes())
	for i := range lts {
		lts[i] = hin.LinkTypeID(i)
	}
	return lts
}

// pipelinePass runs the batch audit once: generate, release, anonymize
// (setup), then persist, load, index, attack and sweep (audit).
func pipelinePass(users int, seed uint64, traced, verify bool, workdir string) (passResult, error) {
	rec := newRecorder(traced)
	var reg *obs.Registry
	if traced {
		reg = obs.New()
	}
	layers := map[string]float64{}
	var res passResult

	root := rec.begin(trace.Span{}, "pipeline.pass", false)
	t0 := time.Now()
	st := rec.begin(root.sp, "tqq.generate", true)
	cfg := pipelineConfig(users, seed)
	ds, err := tqq.Generate(cfg)
	if err != nil {
		return res, fmt.Errorf("generate: %w", err)
	}
	layers["tqq.generate_s"] = seconds(st.end())
	layers["tqq.edges"] = float64(ds.Graph.NumEdgesTotal())

	st = rec.begin(root.sp, "anonymize.release", true)
	rels := make([]release, pipelineCommunities)
	for ci := range rels {
		if rels[ci], err = releaseCommunity(ds, ci, seed); err != nil {
			return res, fmt.Errorf("release %d: %w", ci, err)
		}
	}
	cga, err := anonymize.CompleteGraph(rels[0].graph, anonymize.CGAOptions{StrengthMax: cfg.StrengthMax, Seed: seed + 100})
	if err != nil {
		return res, fmt.Errorf("complete graph: %w", err)
	}
	layers["anonymize.release_s"] = seconds(st.end())
	res.SetupS = seconds(time.Since(t0))

	sweepCfg := risk.SignatureConfig{
		MaxDistance: sweepDistance,
		LinkTypes:   allLinkTypes(ds.Graph.Schema()),
		EntityAttrs: []int{tqq.AttrNumTags},
		Metrics:     reg,
	}
	var ref *memReference
	if verify {
		if ref, err = memoryReference(ds.Graph, rels, sweepCfg); err != nil {
			return res, err
		}
	}

	path := filepath.Join(workdir, fmt.Sprintf("pipeline-%d.hincsr", os.Getpid()))
	defer os.Remove(path)
	st = rec.begin(root.sp, "hin.persist", true)
	if err := hin.WriteCSRFile(path, ds.Graph); err != nil {
		return res, fmt.Errorf("persist: %w", err)
	}
	persistS := seconds(st.end())
	layers["hin.persist_s"] = persistS
	edges := ds.Graph.NumEdgesTotal()
	if st, err := os.Stat(path); err == nil {
		layers["hin.file_bytes_per_link"] = float64(st.Size()) / float64(edges)
	}

	// The audit reads only the file: the generated graph is dead from
	// here on, and a collection now keeps the GC from marking it beside
	// the attacks.
	runtime.GC()
	t1 := time.Now()
	out, err := audit(rec, root.sp, path, rels, cga, sweepCfg, reg, layers)
	if err != nil {
		return res, err
	}
	res.WorkS = persistS + seconds(time.Since(t1))
	root.end()
	out.Edges = edges
	res.Pipeline = &out.pipelineOut
	if ref != nil {
		res.Problems = ref.check(out)
		res.Checks += 4
	}
	if res.RSSMB, err = peakRSSMB("self"); err != nil {
		return res, err
	}

	if traced {
		dehinLayers(layers, counterOf(reg.Snapshot()))
		layers["risk.rounds"] = float64(reg.Snapshot().Counter("risk_sweep_rounds_total"))
		layers["runtime.alloc_mb"] = float64(rec.allocBytes) / (1 << 20)
		layers["runtime.gc_cycles"] = float64(rec.gcCycles)
		rep, err := exportTrace(rec.tr, filepath.Join(workdir, "trace-pipeline.json"))
		if err != nil {
			return res, err
		}
		layers["pipeline.residual_s"] = rep.Self["pipeline.pass"]
		res.Trace = &rep
	}
	res.Layers = layers
	return res, nil
}

// auditOut is the audit's outputs, with what the checks need: the loaded
// file's size and the per-target outcomes.
type auditOut struct {
	pipelineOut
	users   int
	edges   int64
	results []dehin.Result
}

// audit runs the timed stages after persist: load the file, build the
// index and the two attacks, attack every release, sweep the risk. It
// records each stage's time in layers.
func audit(rec *recorder, parent trace.Span, path string, rels []release, cga *hin.Graph, sweepCfg risk.SignatureConfig, reg *obs.Registry, layers map[string]float64) (*auditOut, error) {
	st := rec.begin(parent, "hin.load", true)
	cf, err := hin.OpenCSRFile(path)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	defer cf.Close()
	aux := cf.Graph()
	layers["hin.load_s"] = seconds(st.end())

	st = rec.begin(parent, "dehin.index", true)
	idx, err := dehin.NewIndex(aux, dehin.TQQProfile())
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	base := dehin.Config{MaxDistance: attackDistance, Profile: dehin.TQQProfile(), UseIndex: true, SharedIndex: idx, Metrics: reg}
	atk, err := dehin.NewAttack(aux, base)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	cgaCfg := base
	cgaCfg.RemoveMajorityStrength, cgaCfg.FallbackProfileOnly = true, true
	cgaAtk, err := dehin.NewAttack(aux, cgaCfg)
	if err != nil {
		return nil, fmt.Errorf("cga attack: %w", err)
	}
	layers["dehin.index_s"] = seconds(st.end())

	out := &auditOut{users: aux.NumEntities(), edges: aux.NumEdgesTotal(), results: make([]dehin.Result, len(rels))}
	var runS float64
	for i, r := range rels {
		st = rec.begin(parent, "dehin.run", true)
		st.sp.Attr("release", int64(i))
		if out.results[i], err = atk.Run(r.graph, r.truth); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		runS += seconds(st.end())
		out.Precision = append(out.Precision, out.results[i].Precision)
		out.Reduction = append(out.Reduction, out.results[i].ReductionRate)
	}
	layers["dehin.run_s"] = runS

	st = rec.begin(parent, "dehin.run_cga", true)
	cgaRes, err := cgaAtk.Run(cga, rels[0].truth)
	if err != nil {
		return nil, fmt.Errorf("cga run: %w", err)
	}
	layers["dehin.run_cga_s"] = seconds(st.end())
	out.Precision = append(out.Precision, cgaRes.Precision)
	out.Reduction = append(out.Reduction, cgaRes.ReductionRate)

	st = rec.begin(parent, "risk.sweep", true)
	sw, err := risk.NetworkSweep(aux, sweepCfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	layers["risk.sweep_s"] = seconds(st.end())
	out.Risk, out.Cardinality = sw.Risk, sw.Cardinality
	return out, nil
}

// dehinLayers fills the attack's work counters (names as in
// internal/dehin/metrics.go) from c, which reads one counter: from a
// registry snapshot, or as a delta of the daemon's /metrics.
func dehinLayers(layers map[string]float64, c func(name string) float64) {
	queries, cands, pruned := c("dehin_attack_queries_total"), c("dehin_attack_profile_candidates_total"), c("dehin_attack_degree_pruned_total")
	hits, misses := c("dehin_attack_memo_hits_total"), c("dehin_attack_memo_misses_total")
	layers["dehin.queries"] = queries
	layers["dehin.candidates"] = cands
	layers["dehin.degree_pruned"] = pruned
	layers["dehin.fallbacks"] = c("dehin_attack_profile_fallbacks_total")
	layers["dehin.memo_hits"] = hits
	layers["dehin.memo_misses"] = misses
	layers["dehin.matcher_runs"] = c("dehin_attack_matcher_runs_total")
	if cands > 0 {
		layers["dehin.prune_ratio"] = pruned / cands
	}
	if hits+misses > 0 {
		layers["dehin.memo_hit_ratio"] = hits / (hits + misses)
	}
}

func counterOf(s obs.Snapshot) func(string) float64 {
	return func(name string) float64 { return float64(s.Counter(name)) }
}

// memReference holds what the checks compare each audit with, computed
// before the audit on the generated in-memory graph - code paths the
// audit does not share: its size, single queries on the in-memory backend
// for the first targets of each release, and the distance-0 risk counted
// directly.
type memReference struct {
	users   int
	edges   int64
	sampled [][]dehin.TargetOutcome
	risk0   float64
}

const sampledTargets = 10

func memoryReference(mem *hin.Graph, rels []release, cfg risk.SignatureConfig) (*memReference, error) {
	ref := &memReference{users: mem.NumEntities(), edges: mem.NumEdgesTotal()}
	atk, err := dehin.NewAttack(mem, dehin.Config{MaxDistance: attackDistance, Profile: dehin.TQQProfile(), UseIndex: true})
	if err != nil {
		return nil, err
	}
	for _, r := range rels {
		var outs []dehin.TargetOutcome
		for v := 0; v < sampledTargets && v < r.graph.NumEntities(); v++ {
			cands := atk.Deanonymize(r.graph, hin.EntityID(v))
			o := dehin.TargetOutcome{Candidates: len(cands)}
			if len(cands) == 1 {
				o.Unique, o.Correct = true, cands[0] == r.truth[v]
			}
			outs = append(outs, o)
		}
		ref.sampled = append(ref.sampled, outs)
	}
	cfg.MaxDistance, cfg.Metrics = 0, nil
	if ref.risk0, err = risk.NetworkRisk(mem, cfg); err != nil {
		return nil, err
	}
	return ref, nil
}

// check compares one audit with the reference and returns one line per
// failed check (four checks).
func (ref *memReference) check(out *auditOut) []string {
	var bad []string
	if out.users != ref.users || out.edges != ref.edges {
		bad = append(bad, fmt.Sprintf("loaded file has %d users/%d links, generated graph %d/%d",
			out.users, out.edges, ref.users, ref.edges))
	}
	mismatches := 0
	for i, outs := range ref.sampled {
		for v, want := range outs {
			got := out.results[i].PerTarget[v]
			if got.Candidates != want.Candidates || got.Correct != want.Correct {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		bad = append(bad, fmt.Sprintf("%d sampled batch outcomes differ from single queries on the in-memory graph", mismatches))
	}
	if out.Risk[0] != ref.risk0 {
		bad = append(bad, fmt.Sprintf("distance-0 risk %v, in-memory graph gives %v", out.Risk[0], ref.risk0))
	}
	for d := 1; d < len(out.Risk); d++ {
		if out.Risk[d] < out.Risk[d-1] || out.Cardinality[d] < out.Cardinality[d-1] {
			bad = append(bad, fmt.Sprintf("risk or cardinality falls from distance %d to %d", d-1, d))
			break
		}
	}
	return bad
}
