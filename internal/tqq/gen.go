package tqq

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/par"
	"github.com/hinpriv/dehin/internal/randx"
)

// CommunitySpec requests one planted community: Size users whose induced
// subgraph has exactly the Equation-4 density Density (up to rounding to a
// whole number of edges). Planted communities play the role of the paper's
// sampled 1000-vertex target graphs of known density.
type CommunitySpec struct {
	Size    int
	Density float64
}

// Config parameterizes the synthetic t.qq generator. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Users is the total number of user entities (the paper's auxiliary
	// network has 2,320,895; experiments here default to a scaled-down
	// network and record the size used).
	Users int
	// Seed drives all generator randomness.
	Seed uint64

	// Workers bounds the generator's sampling pool (profiles, edges,
	// recommendation log); 0 means GOMAXPROCS. It does not bound the
	// graph build: hin.Builder.Build sizes its own pool, one link type
	// per worker up to GOMAXPROCS, as dehin.NewIndex does, so Workers = 1
	// still builds a large network on every core. The generated dataset
	// is a function of the Config alone: work is cut into fixed-size
	// shards whose random streams derive only from (Seed, shard id), so
	// output is byte-identical for every Workers value and every
	// GOMAXPROCS setting.
	Workers int

	// YearMin and YearMax bound the year-of-birth attribute; the default
	// span of 87 years matches the paper's reported yob cardinality.
	YearMin, YearMax int
	// GenderWeights give the relative frequency of the gender codes
	// 0..len-1. Three codes match the paper's gender cardinality of 3.
	GenderWeights []float64
	// TweetCountMax bounds the log-uniform tweet-count attribute. The
	// default of 30000 yields ~640 distinct values per 1000 users,
	// matching the paper's tweet-count cardinality of 643.
	TweetCountMax int
	// TagUniverse is the number of distinct tag IDs; MaxTags the largest
	// per-user tag-set size (uniform 0..MaxTags gives the paper's
	// number-of-tags cardinality of MaxTags+1 = 11); TagZipf the skew of
	// tag popularity.
	TagUniverse int
	MaxTags     int
	TagZipf     float64

	// BackgroundAvgOutDeg is the mean out-degree per link type of the
	// background (non-community) edge process; DegreeAlpha its power-law
	// exponent and DegreeMax the largest raw degree draw.
	BackgroundAvgOutDeg float64
	DegreeAlpha         float64
	DegreeMax           int

	// StrengthP is the geometric parameter for link strengths (mention/
	// retweet/comment counts); StrengthMax caps them.
	StrengthP   float64
	StrengthMax int

	// ZeroOutFrac is the MINIMUM fraction of community members with no
	// out-edges of a given link type. Real induced samples of social
	// networks have a sizable per-type isolated population - it is what
	// keeps the paper's single-link-type risk at ~84-90% rather than
	// ~100% at distance 1 (isolated users collide on profile features
	// alone). At low densities the effective zero fraction grows well
	// beyond this floor: edges concentrate on a heavy tail (see
	// DegreeTailAlpha) and most members end up isolated, exactly like a
	// sparse induced sample of a power-law graph.
	ZeroOutFrac float64
	// DegreeTailAlpha is the power-law exponent of non-isolated community
	// members' out-degrees. The planter keeps this tail shape fixed and
	// absorbs low edge budgets by enlarging the isolated population; only
	// when the budget exceeds what the tail can carry at the minimum zero
	// fraction does the exponent decrease.
	DegreeTailAlpha float64

	// Communities are the planted target blocks.
	Communities []CommunitySpec

	// Items is the number of recommendable items; RecPerUser the average
	// number of recommendation log entries per user.
	Items      int
	RecPerUser int

	// Metrics attaches the generator to an observability registry
	// (internal/obs): run/user/edge counters, whole-run wall time, and a
	// per-task latency histogram labeled by stage (profiles, edges,
	// reclog). Nil disables instrumentation. Metrics never touch the
	// random streams, so the generated dataset stays byte-identical with
	// and without a registry.
	Metrics *obs.Registry

	// Trace attaches the generator to a span tracer
	// (internal/obs/trace): one root span per run, a child span per
	// stage, and per-task spans (shard index, link type, edge counts) on
	// one timeline lane per pool worker, so an exported trace shows which
	// shard straggled and how the pool actually scheduled. Nil (the
	// default) disables tracing; like Metrics, the tracer never touches a
	// random stream.
	Trace *trace.Tracer

	// Log receives levelled progress events (run start/done with sizes at
	// Debug/Info). Nil disables logging.
	Log *obs.Logger
}

// DefaultConfig returns a configuration calibrated to the paper's reported
// dataset statistics, with users scaled down from 2.3M to the given count.
func DefaultConfig(users int, seed uint64) Config {
	return Config{
		Users:               users,
		Seed:                seed,
		YearMin:             1920,
		YearMax:             2006, // 87 distinct years
		GenderWeights:       []float64{0.52, 0.42, 0.06},
		TweetCountMax:       30000,
		TagUniverse:         500,
		MaxTags:             10,
		TagZipf:             1.1,
		BackgroundAvgOutDeg: 6.5,
		DegreeAlpha:         2.3,
		DegreeMax:           300,
		StrengthP:           0.35,
		StrengthMax:         60,
		ZeroOutFrac:         0.10,
		DegreeTailAlpha:     1.8,
		Items:               200,
		RecPerUser:          3,
	}
}

// Item is a recommendable entity from the recommendation log (the paper's
// motivating example uses bank-account recommendations).
type Item struct {
	ID       int32
	Name     string
	Category string
}

// RecEntry is one recommendation preference log record: the user was shown
// the item and accepted or rejected it. This is the sensitive payload the
// adversary is after.
type RecEntry struct {
	User     hin.EntityID
	Item     int32
	Accepted bool
}

// Dataset bundles a generated network with its recommendation log and the
// planted community memberships.
type Dataset struct {
	Graph *hin.Graph
	Items []Item
	Rec   []RecEntry
	// Communities[i] lists the user ids of the i-th requested community,
	// in ascending order.
	Communities [][]hin.EntityID
}

// genShardUsers is the fixed shard width of the parallel generator. Shard
// boundaries (and therefore shard random streams) depend only on the user
// count, never on the worker pool size, which is what makes the output
// independent of Workers/GOMAXPROCS.
const genShardUsers = 2048

// Generate synthesizes a dataset per cfg. It returns an error if the
// configuration is inconsistent (too few users for the requested
// communities, bad ranges, or a community density that exceeds 1).
//
// Determinism and ordering invariant: the dataset is a pure function of
// cfg. Every stage (profiles, community planting, background edges,
// recommendation log) is cut into tasks whose random streams are derived
// serially - before any worker runs - from the stage stream, with fixed
// shard boundaries (genShardUsers) or fixed task identity (community
// index, link type). Workers only consume pre-derived streams and write
// to pre-assigned slots. Each task's edge buffer is then handed to the
// Builder whole (AddLinks, no copy), task by task in task order, so the
// sequence of entities and edge batches is fixed, not an accident of
// scheduling; Build sorts every row and merges duplicate pairs by summed
// strength, so the graph would not depend on that order anyway, and it
// builds the link types on a pool of its own. Link strengths come from
// one geometric sampler per run. Generate(cfg) is byte-identical for
// every Workers and GOMAXPROCS value.
func Generate(cfg Config) (*Dataset, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("tqq_generate_runs_total").Inc()
		cfg.Metrics.Counter("tqq_generate_users_total").Add(int64(cfg.Users))
		t := cfg.Metrics.Histogram("tqq_generate_ns").Time()
		defer t.Stop()
	}
	root := cfg.Trace.Start("tqq.generate")
	root.Attr("users", int64(cfg.Users))
	root.Attr("communities", int64(len(cfg.Communities)))
	defer root.End()
	cfg.Log.Debug("tqq: generate start",
		"users", cfg.Users, "shards", userShards(cfg.Users),
		"communities", len(cfg.Communities))
	geo, err := randx.NewGeometric(cfg.StrengthP)
	if err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	schema := TargetSchema()
	b := hin.NewBuilder(schema)

	stage := root.Child("profiles")
	genProfiles(b, cfg, rng.Split(1), stage)
	stage.End()

	// Reserve community members: disjoint random user sets.
	comms, inCommunity, err := placeCommunities(cfg, rng.Split(2))
	if err != nil {
		return nil, err
	}

	// Plan community planting: budgets (and their validation) are serial
	// and cheap; the edge sampling is the expensive part and runs as one
	// task per (community, link type), each on its own pre-derived
	// stream.
	var tasks []*edgeTask
	for i, spec := range cfg.Communities {
		ctasks, err := planCommunity(schema, spec, comms[i], cfg, geo, rng.Split(uint64(10+i)))
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, ctasks...)
	}
	tasks = append(tasks, planBackground(schema, cfg, geo, inCommunity, rng.Split(3))...)

	stage = root.Child("edges")
	lanes := par.Lanes(cfg.Trace, cfg.Workers, len(tasks))
	edgeTaskNs := stageTaskHist(cfg, "edges")
	par.Run(cfg.Workers, len(tasks), func(w, i int) {
		var sp trace.Span
		if lanes != nil {
			sp = stage.ChildOn(lanes[w], "edge_task")
			sp.Attr("task", int64(i))
			sp.Attr("link_type", int64(tasks[i].lt))
		}
		tm := edgeTaskNs.Time()
		t := tasks[i]
		t.out, t.err = t.gen()
		tm.Stop()
		if sp.Active() {
			sp.Attr("edges", int64(len(t.out)))
			sp.End()
		}
	})
	stage.End()
	var emitted int64
	for _, t := range tasks {
		if t.err != nil {
			return nil, t.err
		}
		emitted += int64(len(t.out))
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("tqq_generate_edges_total").Add(emitted)
	}
	stage = root.Child("merge")
	err = mergeEdges(b, tasks)
	stage.End()
	if err != nil {
		return nil, err
	}

	stage = root.Child("build")
	g, err := b.Build()
	stage.End()
	if err != nil {
		return nil, err
	}
	stage = root.Child("reclog")
	items, rec := genRecLog(cfg, rng.Split(4), stage)
	stage.End()
	cfg.Log.Info("tqq: generate done",
		"users", cfg.Users, "edges", emitted, "rec_entries", len(rec))
	return &Dataset{Graph: g, Items: items, Rec: rec, Communities: comms}, nil
}

// edgeTask is one independent edge-sampling unit: it draws only from its
// own RNG and emits into its own buffer, merged later in task order.
type edgeTask struct {
	lt  hin.LinkTypeID
	gen func() ([]hin.Link, error)
	out []hin.Link
	err error
}

// userShards returns the number of fixed-width user shards for cfg.
func userShards(users int) int {
	return (users + genShardUsers - 1) / genShardUsers
}

// stageTaskHist resolves the per-task latency histogram for one generator
// stage; nil (a no-op timer source) when metrics are disabled.
func stageTaskHist(cfg Config, stage string) *obs.Histogram {
	return cfg.Metrics.Histogram("tqq_generate_task_ns", "stage", stage)
}

// validate rejects every configuration Generate could not build. Each
// float range is written so that NaN fails it.
func validate(cfg *Config) error {
	if cfg.Users < 1 {
		return fmt.Errorf("tqq: Users must be positive, got %d", cfg.Users)
	}
	if cfg.YearMax < cfg.YearMin {
		return fmt.Errorf("tqq: YearMax %d < YearMin %d", cfg.YearMax, cfg.YearMin)
	}
	sum := 0.0
	for i, w := range cfg.GenderWeights {
		if !finite(w, 0) {
			return fmt.Errorf("tqq: GenderWeights[%d] must be a finite number >= 0, got %g", i, w)
		}
		sum += w
	}
	if !(sum > 0) {
		return fmt.Errorf("tqq: GenderWeights must have a positive sum")
	}
	if cfg.TweetCountMax < 0 || cfg.MaxTags < 0 || cfg.TagUniverse < max(cfg.MaxTags, 1) {
		return fmt.Errorf("tqq: invalid profile ranges")
	}
	if !finite(cfg.TagZipf, 0) {
		return fmt.Errorf("tqq: TagZipf must be a finite number >= 0, got %g", cfg.TagZipf)
	}
	if !finite(cfg.BackgroundAvgOutDeg, 0) {
		return fmt.Errorf("tqq: BackgroundAvgOutDeg must be a finite number >= 0, got %g", cfg.BackgroundAvgOutDeg)
	}
	if !(cfg.DegreeAlpha > 0 && cfg.DegreeAlpha <= math.MaxFloat64) {
		return fmt.Errorf("tqq: DegreeAlpha must be a finite number > 0, got %g", cfg.DegreeAlpha)
	}
	if cfg.DegreeMax < 1 {
		return fmt.Errorf("tqq: DegreeMax must be >= 1, got %d", cfg.DegreeMax)
	}
	if !(cfg.StrengthP > 0 && cfg.StrengthP <= 1) {
		return fmt.Errorf("tqq: StrengthP must be in (0,1], got %g", cfg.StrengthP)
	}
	if cfg.StrengthMax < 1 {
		return fmt.Errorf("tqq: StrengthMax must be >= 1")
	}
	if !(cfg.ZeroOutFrac >= 0 && cfg.ZeroOutFrac < 1) {
		return fmt.Errorf("tqq: ZeroOutFrac must be in [0,1), got %g", cfg.ZeroOutFrac)
	}
	if !(cfg.DegreeTailAlpha > 1) {
		return fmt.Errorf("tqq: DegreeTailAlpha must be > 1, got %g", cfg.DegreeTailAlpha)
	}
	if cfg.Items < 0 || cfg.RecPerUser < 0 {
		return fmt.Errorf("tqq: Items and RecPerUser must be >= 0, got %d and %d", cfg.Items, cfg.RecPerUser)
	}
	total := 0
	for i, c := range cfg.Communities {
		if c.Size < 2 {
			return fmt.Errorf("tqq: community %d size %d too small", i, c.Size)
		}
		if !(c.Density >= 0 && c.Density <= 1) {
			return fmt.Errorf("tqq: community %d density %g out of [0,1]", i, c.Density)
		}
		total += c.Size
	}
	if total > cfg.Users {
		return fmt.Errorf("tqq: communities need %d users, only %d available", total, cfg.Users)
	}
	return nil
}

// finite reports whether x is a finite number >= lo; NaN is not.
func finite(x, lo float64) bool {
	return x >= lo && x <= math.MaxFloat64
}

// profileShard buffers one user shard's drawn profile, filled by a worker
// and drained serially into the Builder in shard order.
type profileShard struct {
	labels string     // the shard's labels back to back
	ends   []int32    // ends[i]: where the i-th user's label ends in labels
	scalar [][4]int64 // yob, gender, tweets, ntags
	tags   [][]int32  // nil when the user has no tags
}

// genProfiles adds all user entities with calibrated profile attributes.
// Each fixed-width user shard draws from its own stream (forked serially
// from the stage stream) into a private buffer, sorting each user's tags;
// the Builder is then fed in shard order, adopting the sorted tag sets
// uncopied, so entity ids and attributes never depend on scheduling.
func genProfiles(b *hin.Builder, cfg Config, rng *randx.RNG, stage trace.Span) {
	gender, err := randx.NewAlias(cfg.GenderWeights)
	if err != nil {
		panic(err) // validated already
	}
	tagPop, err := randx.NewAlias(randx.ZipfWeights(cfg.TagUniverse, cfg.TagZipf))
	if err != nil {
		panic(err)
	}
	nShards := userShards(cfg.Users)
	rngs := rng.Fork(nShards)
	shards := make([]profileShard, nShards)
	shardNs := stageTaskHist(cfg, "profiles")
	lanes := par.Lanes(cfg.Trace, cfg.Workers, nShards)
	par.Run(cfg.Workers, nShards, func(w, s int) {
		if lanes != nil {
			sp := stage.ChildOn(lanes[w], "profiles_shard")
			sp.Attr("shard", int64(s))
			defer sp.End()
		}
		tm := shardNs.Time()
		defer tm.Stop()
		lo := s * genShardUsers
		hi := min(lo+genShardUsers, cfg.Users)
		r := rngs[s]
		sh := &shards[s]
		labels := make([]byte, 0, 9*(hi-lo))
		sh.ends = make([]int32, 0, hi-lo)
		sh.scalar = make([][4]int64, 0, hi-lo)
		sh.tags = make([][]int32, 0, hi-lo)
		seen := make([]uint64, (cfg.TagUniverse+63)/64) // the user's tags so far
		for i := lo; i < hi; i++ {
			yob := int64(r.IntRange(cfg.YearMin, cfg.YearMax))
			gen := int64(gender.Sample(r))
			tweets := int64(r.LogUniformInt(0, cfg.TweetCountMax))
			ntags := r.Intn(cfg.MaxTags + 1)
			var tags []int32
			if ntags > 0 {
				tags = make([]int32, 0, ntags)
				for len(tags) < ntags {
					t := tagPop.Sample(r)
					if bit := uint64(1) << (t & 63); seen[t>>6]&bit == 0 {
						seen[t>>6] |= bit
						tags = append(tags, int32(t))
					}
				}
				for _, t := range tags {
					seen[t>>6] = 0 // only this user's bits are set
				}
				slices.Sort(tags)
			}
			labels = appendUserLabel(labels, i)
			sh.ends = append(sh.ends, int32(len(labels)))
			sh.scalar = append(sh.scalar, [4]int64{yob, gen, tweets, int64(ntags)})
			sh.tags = append(sh.tags, tags)
		}
		sh.labels = string(labels)
	})
	for s := range shards {
		sh := &shards[s]
		start := int32(0)
		for i, end := range sh.ends {
			a := sh.scalar[i]
			id := b.AddEntity(0, sh.labels[start:end], a[0], a[1], a[2], a[3])
			start = end
			if len(sh.tags[i]) > 0 {
				b.AdoptSet(TagsAttr, id, sh.tags[i])
			}
		}
	}
}

// appendUserLabel appends user i's label, fmt.Sprintf("u%07d", i), to buf.
func appendUserLabel(buf []byte, i int) []byte {
	buf = append(buf, 'u')
	for p := 1_000_000; p > 1 && i < p; p /= 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(i), 10)
}

// placeCommunities picks disjoint random user sets for the requested
// communities and returns them (each ascending) plus a membership mask.
func placeCommunities(cfg Config, rng *randx.RNG) ([][]hin.EntityID, []bool, error) {
	total := 0
	for _, c := range cfg.Communities {
		total += c.Size
	}
	inCommunity := make([]bool, cfg.Users)
	if total == 0 {
		return nil, inCommunity, nil
	}
	pool := rng.SampleWithoutReplacement(cfg.Users, total)
	comms := make([][]hin.EntityID, len(cfg.Communities))
	at := 0
	for i, c := range cfg.Communities {
		ids := make([]hin.EntityID, c.Size)
		for j := 0; j < c.Size; j++ {
			ids[j] = hin.EntityID(pool[at])
			inCommunity[pool[at]] = true
			at++
		}
		sortEntityIDs(ids)
		comms[i] = ids
	}
	return comms, inCommunity, nil
}

// planCommunity splits one planted community's Equation-4 edge budget
// evenly across link types (remainder to the earliest types) and returns
// one edge-sampling task per type, each bound to a stream pre-derived
// from the community's stream. Budget validation happens here, before any
// worker runs.
func planCommunity(schema *hin.Schema, spec CommunitySpec, members []hin.EntityID, cfg Config, geo *randx.Geometric, rng *randx.RNG) ([]*edgeTask, error) {
	nTypes := schema.NumLinkTypes()
	budget := int64(spec.Density*float64(hin.MaxEdges(schema, spec.Size)) + 0.5)
	maxPerType := int64(spec.Size) * int64(spec.Size-1)
	tasks := make([]*edgeTask, 0, nTypes)
	for lt := 0; lt < nTypes; lt++ {
		share := budget / int64(nTypes)
		if int64(lt) < budget%int64(nTypes) {
			share++
		}
		if share > maxPerType {
			return nil, fmt.Errorf("tqq: community density %g overfills link type %d", spec.Density, lt)
		}
		ltid := hin.LinkTypeID(lt)
		r := rng.Split(uint64(lt))
		tasks = append(tasks, &edgeTask{
			lt: ltid,
			gen: func() ([]hin.Link, error) {
				return plantTypeEdges(schema, ltid, members, share, cfg, geo, r)
			},
		})
	}
	return tasks, nil
}

// plantTypeEdges samples exactly budget edges of one link type among
// members. A ZeroOutFrac share of members gets no out-edges of this type
// (induced social-network samples always have a per-type isolated
// population); the rest draw out-degree quotas from a power law whose
// exponent is solved so the expected total meets the budget, preserving
// the real skew - a mass of degree-1-and-2 users plus a heavy tail - at
// every density. Each source gets distinct destinations, so no duplicates
// arise and the edge count is exact after a small random repair.
func plantTypeEdges(schema *hin.Schema, lt hin.LinkTypeID, members []hin.EntityID, budget int64, cfg Config, geo *randx.Geometric, rng *randx.RNG) ([]hin.Link, error) {
	if budget == 0 {
		return nil, nil
	}
	size := len(members)
	// Decide the isolated fraction: keep the degree tail's shape fixed
	// and let sparsity enlarge the zero population, as in real induced
	// samples. zeroFrac = 1 - budget/(size * tailMean), floored at
	// cfg.ZeroOutFrac; if the budget exceeds what the tail carries at the
	// floor, the tail is made heavier instead (powerLawWithMean).
	tail, err := randx.NewPowerLaw(1, size-1, cfg.DegreeTailAlpha)
	if err != nil {
		return nil, err
	}
	wantMeanAll := float64(budget) / float64(size)
	zeroFrac := 1 - wantMeanAll/tail.Mean()
	if zeroFrac < cfg.ZeroOutFrac {
		zeroFrac = cfg.ZeroOutFrac
	}
	active := make([]bool, size)
	nActive := 0
	for i := range active {
		if !rng.Bool(zeroFrac) {
			active[i] = true
			nActive++
		}
	}
	// Ensure the budget is reachable: activate more members if needed.
	for int64(nActive)*int64(size-1) < budget {
		i := rng.Intn(size)
		if !active[i] {
			active[i] = true
			nActive++
		}
	}
	wantMean := float64(budget) / float64(nActive)
	pl := tail
	if wantMean > tail.Mean() {
		pl, err = powerLawWithMean(size-1, wantMean)
		if err != nil {
			return nil, err
		}
	}
	quota := make([]int, size)
	var assigned int64
	for i := range quota {
		if !active[i] {
			continue
		}
		q := pl.Sample(rng)
		if q > size-1 {
			q = size - 1
		}
		quota[i] = q
		assigned += int64(q)
	}
	// The heavy tail makes the drawn total high-variance; an unlucky big
	// draw can overshoot the budget by a multiple. Rescale quotas
	// proportionally first (keeping every active member at >= 1 so the
	// isolated population stays exactly the mask), then repair the small
	// residue randomly.
	if assigned > budget {
		scale := float64(budget) / float64(assigned)
		assigned = 0
		for i, q := range quota {
			if q == 0 {
				continue
			}
			nq := int(float64(q) * scale)
			if nq < 1 {
				nq = 1
			}
			quota[i] = nq
			assigned += int64(nq)
		}
	}
	for assigned < budget {
		i := rng.Intn(size)
		if active[i] && quota[i] < size-1 {
			quota[i]++
			assigned++
		}
	}
	tries := 0
	for assigned > budget {
		i := rng.Intn(size)
		// Prefer trimming the tail; only zero out degree-1 members when
		// the overshoot leaves no choice (budget below the active count).
		if quota[i] > 1 || (tries > 10*size && quota[i] > 0) {
			quota[i]--
			assigned--
		}
		tries++
	}
	weighted := schema.LinkType(lt).Weighted
	out := make([]hin.Link, 0, budget)
	for i, q := range quota {
		if q == 0 {
			continue
		}
		src := members[i]
		for _, j := range rng.SampleWithoutReplacement(size-1, q) {
			// Map [0,size-1) onto member indices skipping self.
			dj := j
			if dj >= i {
				dj++
			}
			w := int32(1)
			if weighted {
				w = strength(geo, cfg.StrengthMax, rng)
			}
			out = append(out, hin.Link{From: src, To: members[dj], W: w})
		}
	}
	return out, nil
}

// planBackground returns the sparse power-law background edge tasks: one
// per (link type, user shard), each on a stream forked serially from the
// stage stream. Edges whose endpoints both lie inside a community are
// skipped so planted densities stay exact; community members still get
// background edges to the outside, which is what makes de-anonymizing
// against the full auxiliary network non-trivial.
func planBackground(schema *hin.Schema, cfg Config, geo *randx.Geometric, inCommunity []bool, rng *randx.RNG) []*edgeTask {
	if cfg.Users < 2 || cfg.BackgroundAvgOutDeg <= 0 {
		return nil
	}
	maxDeg := cfg.DegreeMax
	if maxDeg > cfg.Users-1 {
		maxDeg = cfg.Users - 1
	}
	pl, err := randx.NewPowerLaw(1, maxDeg, cfg.DegreeAlpha)
	if err != nil {
		panic(err)
	}
	scale := cfg.BackgroundAvgOutDeg / pl.Mean()
	nShards := userShards(cfg.Users)
	var tasks []*edgeTask
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		weighted := schema.LinkType(ltid).Weighted
		rngs := rng.Split(uint64(lt)).Fork(nShards)
		for s := 0; s < nShards; s++ {
			lo := s * genShardUsers
			hi := min(lo+genShardUsers, cfg.Users)
			r := rngs[s]
			tasks = append(tasks, &edgeTask{
				lt: ltid,
				gen: func() ([]hin.Link, error) {
					return genBackgroundShard(cfg, geo, inCommunity, weighted, lo, hi, pl, scale, r), nil
				},
			})
		}
	}
	return tasks
}

// genBackgroundShard draws the background out-edges of users [lo, hi) for
// one link type from the shard's private stream.
func genBackgroundShard(cfg Config, geo *randx.Geometric, inCommunity []bool, weighted bool, lo, hi int, pl *randx.PowerLaw, scale float64, rng *randx.RNG) []hin.Link {
	out := make([]hin.Link, 0, int(float64(hi-lo)*cfg.BackgroundAvgOutDeg))
	for u := lo; u < hi; u++ {
		deg := int(float64(pl.Sample(rng))*scale + rng.Float64())
		for e := 0; e < deg; e++ {
			v := rng.Intn(cfg.Users)
			if v == u {
				continue
			}
			if inCommunity[u] && inCommunity[v] {
				// May be the same community; keep planted densities
				// exact by skipping all community-internal pairs.
				continue
			}
			w := int32(1)
			if weighted {
				w = strength(geo, cfg.StrengthMax, rng)
			}
			// Duplicate (u,v) pairs merge at Build; they are rare and
			// merely nudge strengths, matching organic repeat
			// interactions.
			out = append(out, hin.Link{From: hin.EntityID(u), To: hin.EntityID(v), W: w})
		}
	}
	return out
}

// mergeEdges hands every task's edge buffer to the Builder in task order
// (community tasks first, then background shards, both in creation order)
// and drops the task's reference: the Builder keeps the buffer itself, not
// a copy. Build sorts each row and merges duplicate pairs by summing
// strengths, which is order-independent, so no sort is needed here.
func mergeEdges(b *hin.Builder, tasks []*edgeTask) error {
	for _, t := range tasks {
		if err := b.AddLinks(t.lt, t.out); err != nil {
			return err
		}
		t.out = nil
	}
	return nil
}

// powerLawWithMean builds a power-law sampler on [1, maxK] whose exponent
// is solved (by bisection; the truncated mean is monotone in alpha) so the
// mean approximates wantMean. Out-of-range means clamp to the nearest
// achievable exponent; the caller's budget repair closes the residue.
func powerLawWithMean(maxK int, wantMean float64) (*randx.PowerLaw, error) {
	const aLo, aHi = 1.01, 8.0
	lo, err := randx.NewPowerLaw(1, maxK, aHi)
	if err != nil {
		return nil, err
	}
	if wantMean <= lo.Mean() {
		return lo, nil
	}
	hi, err := randx.NewPowerLaw(1, maxK, aLo)
	if err != nil {
		return nil, err
	}
	if wantMean >= hi.Mean() {
		return hi, nil
	}
	a, b := aLo, aHi // mean decreases in alpha: mean(a) > wantMean > mean(b)
	var best *randx.PowerLaw
	for i := 0; i < 40; i++ {
		mid := (a + b) / 2
		pl, err := randx.NewPowerLaw(1, maxK, mid)
		if err != nil {
			return nil, err
		}
		best = pl
		if pl.Mean() > wantMean {
			a = mid
		} else {
			b = mid
		}
	}
	return best, nil
}

// strength draws a link strength: geometric (geo, built once per run from
// Config.StrengthP) capped at maxStrength, giving the heavy head (strength
// 1-3) and occasional strong ties real interaction counts show.
func strength(geo *randx.Geometric, maxStrength int, rng *randx.RNG) int32 {
	return int32(min(geo.Sample(rng), maxStrength))
}

// recShard buffers one user shard's recommendation log entries.
type recShard struct {
	rec []RecEntry
}

// genRecLog synthesizes items and the recommendation preference log. Items
// are deterministic; log entries are drawn per user shard from forked
// streams and concatenated in shard order.
func genRecLog(cfg Config, rng *randx.RNG, stage trace.Span) ([]Item, []RecEntry) {
	if cfg.Items == 0 {
		return nil, nil
	}
	categories := []string{"bank", "celebrity", "news", "sports", "tech"}
	items := make([]Item, cfg.Items)
	for i := range items {
		cat := categories[i%len(categories)]
		items[i] = Item{
			ID:       int32(i),
			Name:     fmt.Sprintf("%s-%03d", cat, i),
			Category: cat,
		}
	}
	pop, err := randx.NewAlias(randx.ZipfWeights(cfg.Items, 1.0))
	if err != nil {
		panic(err)
	}
	nShards := userShards(cfg.Users)
	rngs := rng.Fork(nShards)
	shards := make([]recShard, nShards)
	shardNs := stageTaskHist(cfg, "reclog")
	lanes := par.Lanes(cfg.Trace, cfg.Workers, nShards)
	par.Run(cfg.Workers, nShards, func(w, s int) {
		var sp trace.Span
		if lanes != nil {
			sp = stage.ChildOn(lanes[w], "reclog_shard")
			sp.Attr("shard", int64(s))
		}
		tm := shardNs.Time()
		lo := s * genShardUsers
		hi := min(lo+genShardUsers, cfg.Users)
		r := rngs[s]
		for u := lo; u < hi; u++ {
			n := r.Intn(2*cfg.RecPerUser + 1)
			for i := 0; i < n; i++ {
				shards[s].rec = append(shards[s].rec, RecEntry{
					User:     hin.EntityID(u),
					Item:     int32(pop.Sample(r)),
					Accepted: r.Bool(0.3),
				})
			}
		}
		tm.Stop()
		if sp.Active() {
			sp.Attr("entries", int64(len(shards[s].rec)))
			sp.End()
		}
	})
	var rec []RecEntry
	for s := range shards {
		rec = append(rec, shards[s].rec...)
	}
	return items, rec
}

// sortEntityIDs sorts ids ascending in place. The order is part of the
// generator's contract (Dataset.Communities lists members ascending), not
// an incidental property of the sampler.
func sortEntityIDs(ids []hin.EntityID) {
	slices.Sort(ids)
}
