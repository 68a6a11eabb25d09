// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic t.qq substrate, plus the design
// ablations DESIGN.md calls out. Each experiment has a Run function
// returning a typed result that renders to a paper-shaped text table.
//
// Absolute numbers depend on the (scaled) auxiliary size and the synthetic
// data; the shapes the paper reports are what these runners reproduce and
// what the package tests assert.
package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Params sizes an experiment run. The paper's setting is AuxUsers
// 2,320,895 / TargetSize 1000 / 57 samples at density 0.01; defaults are
// scaled to run the full suite on a laptop and EXPERIMENTS.md records the
// parameters behind the committed numbers.
type Params struct {
	// Seed drives all dataset and anonymization randomness.
	Seed uint64
	// AuxUsers is the auxiliary network size.
	AuxUsers int
	// TargetSize is the number of users per released target graph.
	TargetSize int
	// SamplesPerDensity is how many independent target graphs are
	// averaged per density (the paper's "57 of the sampled target graphs
	// have density 0.01").
	SamplesPerDensity int
	// Densities are the Equation-4 densities to sweep (Table 2/4,
	// Figure 8).
	Densities []float64
	// Distances are the max-distance values to sweep.
	Distances []int
	// Parallelism bounds attack concurrency; 0 means GOMAXPROCS.
	Parallelism int
	// Workers bounds pipeline concurrency outside the attack inner loop:
	// the sharded generator's sampling, the workbench release warm-up
	// pool, and how many experiments RunAll computes at once. 0 means
	// GOMAXPROCS; 1 runs each of these one task at a time. The pools that
	// size themselves to GOMAXPROCS, the generated graph's build
	// (hin.Builder.Build) and the profile index (dehin.NewIndex), are not
	// bounded by it. Results are identical for every value.
	Workers int
	// Metrics, when non-nil, attaches the whole pipeline to an obs
	// registry: generator stage timings, workbench build counts, attack
	// pruning counters, and per-experiment wall-time histograms. Nil (the
	// default) leaves the attack hot path uninstrumented; the workbench
	// still counts its builds on a private registry so Stats() always
	// works. Metrics never influence results - no random stream
	// ever observes them.
	Metrics *obs.Registry
	// Trace, when non-nil, records the pipeline's span timeline
	// (internal/obs/trace): generator shards, workbench builds, one span
	// per RunAll experiment slot, and sampled attack query spans. Like
	// Metrics, tracing never influences results.
	Trace *trace.Tracer
	// Log receives levelled pipeline progress events. Nil disables
	// logging.
	Log *obs.Logger
}

// DefaultParams returns the committed configuration: every paper shape is
// visible and the full suite runs in minutes on one core. EXPERIMENTS.md
// records these numbers.
func DefaultParams() Params {
	return Params{
		Seed:              1,
		AuxUsers:          12000,
		TargetSize:        500,
		SamplesPerDensity: 1,
		Densities:         []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01},
		Distances:         []int{0, 1, 2, 3},
	}
}

// PaperScaleParams returns a larger configuration (50k auxiliary users,
// 1000-user targets like the paper's, 2 samples per density) for the long
// run; expect a couple of hours on a single core. The paper's own 2.3M-
// user scale fits the data structures too (see TestLargeScale) but makes
// the full sweep a batch job.
func PaperScaleParams() Params {
	return Params{
		Seed:              1,
		AuxUsers:          50000,
		TargetSize:        1000,
		SamplesPerDensity: 2,
		Densities:         []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01},
		Distances:         []int{0, 1, 2, 3},
	}
}

// QuickParams returns a reduced configuration for tests and smoke runs.
func QuickParams() Params {
	return Params{
		Seed:              1,
		AuxUsers:          4000,
		TargetSize:        250,
		SamplesPerDensity: 1,
		Densities:         []float64{0.002, 0.006, 0.01},
		Distances:         []int{0, 1, 2},
	}
}

func (p Params) validate() error {
	if p.AuxUsers < 2 || p.TargetSize < 2 {
		return fmt.Errorf("experiments: bad sizes aux=%d target=%d", p.AuxUsers, p.TargetSize)
	}
	if p.SamplesPerDensity < 1 {
		return fmt.Errorf("experiments: SamplesPerDensity must be >= 1")
	}
	if len(p.Densities) == 0 || len(p.Distances) == 0 {
		return fmt.Errorf("experiments: empty density or distance sweep")
	}
	need := p.TargetSize * p.SamplesPerDensity * len(p.Densities)
	if need > p.AuxUsers {
		return fmt.Errorf("experiments: %d community users exceed %d auxiliary users", need, p.AuxUsers)
	}
	return nil
}

// LinkSubset names one of the 15 non-empty subsets of {follow, mention,
// comment, retweet} in the paper's Table 1/3 notation (f, m, c, r).
type LinkSubset struct {
	Name  string
	Links []hin.LinkTypeID
}

// LinkSubsets enumerates the subsets in the paper's row order.
func LinkSubsets(schema *hin.Schema) []LinkSubset {
	f := schema.MustLinkTypeID(tqq.LinkFollow)
	m := schema.MustLinkTypeID(tqq.LinkMention)
	c := schema.MustLinkTypeID(tqq.LinkComment)
	r := schema.MustLinkTypeID(tqq.LinkRetweet)
	return []LinkSubset{
		{"f", []hin.LinkTypeID{f}},
		{"m", []hin.LinkTypeID{m}},
		{"c", []hin.LinkTypeID{c}},
		{"r", []hin.LinkTypeID{r}},
		{"f-m", []hin.LinkTypeID{f, m}},
		{"f-c", []hin.LinkTypeID{f, c}},
		{"f-r", []hin.LinkTypeID{f, r}},
		{"m-c", []hin.LinkTypeID{m, c}},
		{"m-r", []hin.LinkTypeID{m, r}},
		{"c-r", []hin.LinkTypeID{c, r}},
		{"f-m-c", []hin.LinkTypeID{f, m, c}},
		{"f-m-r", []hin.LinkTypeID{f, m, r}},
		{"f-c-r", []hin.LinkTypeID{f, c, r}},
		{"m-c-r", []hin.LinkTypeID{m, c, r}},
		{"f-m-c-r", []hin.LinkTypeID{f, m, c, r}},
	}
}
