package tqq

import (
	"fmt"
	"math"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
)

func TestGenerateBasic(t *testing.T) {
	cfg := DefaultConfig(2000, 7)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	if g.NumEntities() != 2000 {
		t.Fatalf("users = %d", g.NumEntities())
	}
	if g.NumEdgesTotal() == 0 {
		t.Fatal("no edges generated")
	}
	for v := 0; v < g.NumEntities(); v++ {
		id := hin.EntityID(v)
		yob := g.Attr(id, AttrYob)
		if yob < int64(cfg.YearMin) || yob > int64(cfg.YearMax) {
			t.Fatalf("yob out of range: %d", yob)
		}
		if gen := g.Attr(id, AttrGender); gen < 0 || gen >= int64(len(cfg.GenderWeights)) {
			t.Fatalf("gender out of range: %d", gen)
		}
		if tw := g.Attr(id, AttrTweets); tw < 0 || tw > int64(cfg.TweetCountMax) {
			t.Fatalf("tweets out of range: %d", tw)
		}
		nt := g.Attr(id, AttrNumTags)
		if nt < 0 || nt > int64(cfg.MaxTags) {
			t.Fatalf("numtags out of range: %d", nt)
		}
		if int64(len(g.Set(TagsAttr, id))) != nt {
			t.Fatalf("numtags attr %d disagrees with tag set %v", nt, g.Set(TagsAttr, id))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(500, 42)
	cfg.Communities = []CommunitySpec{{Size: 100, Density: 0.01}}
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Graph.NumEdgesTotal() != d2.Graph.NumEdgesTotal() {
		t.Fatalf("edge counts differ: %d vs %d", d1.Graph.NumEdgesTotal(), d2.Graph.NumEdgesTotal())
	}
	for v := 0; v < d1.Graph.NumEntities(); v++ {
		id := hin.EntityID(v)
		a1, a2 := d1.Graph.Attrs(id), d2.Graph.Attrs(id)
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("entity %d attr %d differs", v, i)
			}
		}
		for lt := 0; lt < 4; lt++ {
			t1, w1 := d1.Graph.OutEdges(hin.LinkTypeID(lt), id)
			t2, w2 := d2.Graph.OutEdges(hin.LinkTypeID(lt), id)
			if len(t1) != len(t2) {
				t.Fatalf("entity %d lt %d degree differs", v, lt)
			}
			for i := range t1 {
				if t1[i] != t2[i] || w1[i] != w2[i] {
					t.Fatalf("entity %d lt %d edge %d differs", v, lt, i)
				}
			}
		}
	}
	if len(d1.Rec) != len(d2.Rec) {
		t.Fatal("rec logs differ")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	d1, err := Generate(DefaultConfig(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(DefaultConfig(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Graph.NumEdgesTotal() == d2.Graph.NumEdgesTotal() {
		// Edge counts could coincide; check attributes too before failing.
		same := true
		for v := 0; v < 50; v++ {
			if d1.Graph.Attr(hin.EntityID(v), AttrTweets) != d2.Graph.Attr(hin.EntityID(v), AttrTweets) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestProfileCalibration(t *testing.T) {
	// Section 6.1 reports average cardinalities of 3 (gender), 87 (yob),
	// 643 (tweet count) and 11 (number of tags) per 1000-user sample. The
	// generator must land near them.
	d, err := Generate(DefaultConfig(1000, 99))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	if c := hin.AttrCardinality(g, 0, AttrGender); c != 3 {
		t.Errorf("gender cardinality = %d, want 3", c)
	}
	if c := hin.AttrCardinality(g, 0, AttrYob); c < 80 || c > 87 {
		t.Errorf("yob cardinality = %d, want ~87", c)
	}
	if c := hin.AttrCardinality(g, 0, AttrTweets); c < 550 || c > 750 {
		t.Errorf("tweet-count cardinality = %d, want ~643", c)
	}
	if c := hin.AttrCardinality(g, 0, AttrNumTags); c != 11 {
		t.Errorf("numtags cardinality = %d, want 11", c)
	}
}

func TestPlantedCommunityDensity(t *testing.T) {
	for _, density := range []float64{0.001, 0.005, 0.01} {
		cfg := DefaultConfig(3000, 5)
		cfg.Communities = []CommunitySpec{{Size: 500, Density: density}}
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Communities) != 1 || len(d.Communities[0]) != 500 {
			t.Fatalf("density %g: communities misplaced", density)
		}
		sub, _, err := d.Graph.Induced(d.Communities[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := hin.Density(sub)
		if err != nil {
			t.Fatal(err)
		}
		// Exact up to integer rounding of the edge budget.
		tol := 4.0 / float64(hin.MaxEdges(sub.Schema(), 500))
		if math.Abs(got-density) > tol {
			t.Errorf("density %g: induced density %g (tol %g)", density, got, tol)
		}
	}
}

func TestMultipleCommunitiesDisjoint(t *testing.T) {
	cfg := DefaultConfig(2000, 3)
	cfg.Communities = []CommunitySpec{
		{Size: 300, Density: 0.01},
		{Size: 300, Density: 0.002},
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[hin.EntityID]bool)
	for _, c := range d.Communities {
		for _, v := range c {
			if seen[v] {
				t.Fatalf("user %d in two communities", v)
			}
			seen[v] = true
		}
	}
	// Each community keeps its own density.
	for i, want := range []float64{0.01, 0.002} {
		sub, _, _ := d.Graph.Induced(d.Communities[i])
		got, _ := hin.Density(sub)
		tol := 4.0 / float64(hin.MaxEdges(sub.Schema(), 300))
		if math.Abs(got-want) > tol {
			t.Errorf("community %d density %g, want %g", i, got, want)
		}
	}
}

func TestCommunityMembersHaveOutsideEdges(t *testing.T) {
	cfg := DefaultConfig(2000, 11)
	cfg.Communities = []CommunitySpec{{Size: 400, Density: 0.01}}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	member := make(map[hin.EntityID]bool)
	for _, v := range d.Communities[0] {
		member[v] = true
	}
	outside := 0
	for _, v := range d.Communities[0] {
		for lt := 0; lt < 4; lt++ {
			tos, _ := d.Graph.OutEdges(hin.LinkTypeID(lt), v)
			for _, to := range tos {
				if !member[to] {
					outside++
				}
			}
		}
	}
	if outside == 0 {
		t.Fatal("community is isolated from the background network")
	}
}

// configCase is a change to a valid configuration that Generate must
// refuse with an error before any stage runs.
type configCase struct {
	name string
	mod  func(*Config)
}

func expectRejected(t *testing.T, cases []configCase) {
	t.Helper()
	for _, tc := range cases {
		cfg := DefaultConfig(100, 1)
		tc.mod(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestGenerateErrors holds configurations Generate must refuse, among
// them ones it once hung on (a NaN density), crashed on from a worker (a
// NaN mean degree), panicked on, or accepted with a NaN in them.
func TestGenerateErrors(t *testing.T) {
	nan := math.NaN()
	expectRejected(t, []configCase{
		{"no users", func(c *Config) { c.Users = 0 }},
		{"YearMax below YearMin", func(c *Config) { c.YearMax = c.YearMin - 1 }},
		{"GenderWeights nil", func(c *Config) { c.GenderWeights = nil }},
		{"GenderWeights all zero", func(c *Config) { c.GenderWeights = []float64{0, 0, 0} }},
		{"GenderWeights negative", func(c *Config) { c.GenderWeights = []float64{0.6, -0.1, 0.5} }},
		{"GenderWeights NaN", func(c *Config) { c.GenderWeights = []float64{0.5, nan} }},
		{"MaxTags above TagUniverse", func(c *Config) { c.TagUniverse = 2; c.MaxTags = 5 }},
		{"TagUniverse and MaxTags 0", func(c *Config) { c.TagUniverse, c.MaxTags = 0, 0 }},
		{"TagZipf NaN", func(c *Config) { c.TagZipf = nan }},
		{"BackgroundAvgOutDeg NaN", func(c *Config) { c.BackgroundAvgOutDeg = nan }},
		{"BackgroundAvgOutDeg +Inf", func(c *Config) { c.BackgroundAvgOutDeg = math.Inf(1) }},
		{"BackgroundAvgOutDeg negative", func(c *Config) { c.BackgroundAvgOutDeg = -1 }},
		{"StrengthP 0", func(c *Config) { c.StrengthP = 0 }},
		{"StrengthP NaN", func(c *Config) { c.StrengthP = nan }},
		{"StrengthMax 0", func(c *Config) { c.StrengthMax = 0 }},
		{"Items negative", func(c *Config) { c.Items = -1 }},
		{"RecPerUser negative", func(c *Config) { c.RecPerUser = -1 }},
		{"community of one", func(c *Config) { c.Communities = []CommunitySpec{{Size: 1, Density: 0.1}} }},
		{"community density above 1", func(c *Config) { c.Communities = []CommunitySpec{{Size: 10, Density: 1.5}} }},
		{"community density NaN", func(c *Config) { c.Communities = []CommunitySpec{{Size: 50, Density: nan}} }},
		{"community larger than the network", func(c *Config) { c.Communities = []CommunitySpec{{Size: 200, Density: 0.1}} }},
	})
}

// TestGenerateRejectsBadDegreeModel holds the out-degree model's
// parameters that leave no valid distribution to draw from.
func TestGenerateRejectsBadDegreeModel(t *testing.T) {
	nan := math.NaN()
	expectRejected(t, []configCase{
		{"DegreeAlpha NaN", func(c *Config) { c.DegreeAlpha = nan }},
		{"DegreeMax 0", func(c *Config) { c.DegreeMax = 0 }},
		{"ZeroOutFrac 1", func(c *Config) { c.ZeroOutFrac = 1 }},
		{"ZeroOutFrac NaN", func(c *Config) { c.ZeroOutFrac = nan }},
		{"DegreeTailAlpha 1", func(c *Config) { c.DegreeTailAlpha = 1 }},
		{"DegreeTailAlpha NaN", func(c *Config) { c.DegreeTailAlpha = nan }},
	})
}

// TestAppendUserLabel checks the generator's labels against the format
// they stand for, on both sides of the seventh digit and at the paper's
// network size.
func TestAppendUserLabel(t *testing.T) {
	for _, i := range []int{0, 7, 10, 999_999, 1_000_000, 2_320_894, 9_999_999, 10_000_000, 123_456_789} {
		if got, want := string(appendUserLabel([]byte("x"), i)), "x"+fmt.Sprintf("u%07d", i); got != want {
			t.Errorf("user %d: label %q, want %q", i, got, want)
		}
	}
}

func TestRecLog(t *testing.T) {
	cfg := DefaultConfig(200, 8)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Items) != cfg.Items {
		t.Fatalf("items = %d", len(d.Items))
	}
	if len(d.Rec) == 0 {
		t.Fatal("no recommendation log")
	}
	for _, r := range d.Rec {
		if int(r.User) < 0 || int(r.User) >= 200 {
			t.Fatalf("rec user out of range: %d", r.User)
		}
		if int(r.Item) < 0 || int(r.Item) >= cfg.Items {
			t.Fatalf("rec item out of range: %d", r.Item)
		}
	}
	// RecFor returns exactly this user's entries.
	u := d.Rec[0].User
	for _, r := range d.RecFor(u) {
		if r.User != u {
			t.Fatal("RecFor returned foreign entry")
		}
	}
	if _, ok := d.ItemByName(d.Items[3].Name); !ok {
		t.Fatal("ItemByName failed")
	}
	if _, ok := d.ItemByName("no-such-item"); ok {
		t.Fatal("ItemByName found a ghost")
	}
}

func TestSampleTargetAndCommunityTarget(t *testing.T) {
	cfg := DefaultConfig(1500, 13)
	cfg.Communities = []CommunitySpec{{Size: 200, Density: 0.01}}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(1)
	tgt, err := CommunityTarget(d, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Graph.NumEntities() != 200 || len(tgt.Orig) != 200 {
		t.Fatalf("target size %d / %d", tgt.Graph.NumEntities(), len(tgt.Orig))
	}
	// Ground truth: target entity attrs equal dataset entity attrs.
	for i := 0; i < 200; i++ {
		want := d.Graph.Attrs(tgt.Orig[i])
		got := tgt.Graph.Attrs(hin.EntityID(i))
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("target %d attr %d mismatch", i, j)
			}
		}
	}
	// Every target edge exists in the dataset with identical strength.
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < 200; v++ {
			tos, ws := tgt.Graph.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for i, to := range tos {
				w, ok := d.Graph.FindEdge(hin.LinkTypeID(lt), tgt.Orig[v], tgt.Orig[to])
				if !ok || w != ws[i] {
					t.Fatalf("target edge missing in dataset: lt %d %d->%d", lt, v, to)
				}
			}
		}
	}
	if _, err := CommunityTarget(d, 5, rng); err == nil {
		t.Fatal("missing community accepted")
	}

	rt, err := RandomSample(d, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Graph.NumEntities() != 100 {
		t.Fatalf("random sample size %d", rt.Graph.NumEntities())
	}
	if _, err := RandomSample(d, 99999, rng); err == nil {
		t.Fatal("oversized sample accepted")
	}
}

// TestCommunityDegreeShape pins the degree model DESIGN.md §4 describes:
// at low density most members are isolated per link type (like a sparse
// induced sample of a power-law graph); at high density the isolated
// fraction stays near the configured floor and degree-1 users remain
// plentiful (the mass that makes risk grow from n=1 to n=2).
func TestCommunityDegreeShape(t *testing.T) {
	cfg := DefaultConfig(5000, 61)
	cfg.Communities = []CommunitySpec{
		{Size: 1000, Density: 0.001},
		{Size: 1000, Density: 0.01},
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	isolatedFrac := func(ci int, lt hin.LinkTypeID) float64 {
		sub, _, err := d.Graph.Induced(d.Communities[ci])
		if err != nil {
			t.Fatal(err)
		}
		zero := 0
		for v := 0; v < sub.NumEntities(); v++ {
			if sub.OutDegree(lt, hin.EntityID(v)) == 0 {
				zero++
			}
		}
		return float64(zero) / float64(sub.NumEntities())
	}
	degreeOneFrac := func(ci int, lt hin.LinkTypeID) float64 {
		sub, _, err := d.Graph.Induced(d.Communities[ci])
		if err != nil {
			t.Fatal(err)
		}
		ones := 0
		for v := 0; v < sub.NumEntities(); v++ {
			if sub.OutDegree(lt, hin.EntityID(v)) == 1 {
				ones++
			}
		}
		return float64(ones) / float64(sub.NumEntities())
	}
	for lt := hin.LinkTypeID(0); lt < 4; lt++ {
		sparse := isolatedFrac(0, lt)
		dense := isolatedFrac(1, lt)
		if sparse < 0.5 {
			t.Errorf("lt %d: sparse community isolated fraction %.2f, want most members isolated", lt, sparse)
		}
		if dense < cfg.ZeroOutFrac-0.05 || dense > 0.35 {
			t.Errorf("lt %d: dense community isolated fraction %.2f, want near floor %.2f", lt, dense, cfg.ZeroOutFrac)
		}
		if sparse <= dense {
			t.Errorf("lt %d: isolation must grow as density falls (%.2f vs %.2f)", lt, sparse, dense)
		}
		if d1 := degreeOneFrac(1, lt); d1 < 0.05 {
			t.Errorf("lt %d: dense community degree-1 fraction %.2f, want a heavy low-degree mass", lt, d1)
		}
	}
}
