package tqq

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
)

// GrowthConfig models the paper's Section 5.1 threat model: the adversary
// crawls the auxiliary network some time after the target dataset was
// released, so the auxiliary is a superset - it "contains all the target
// users and links among them" plus new users, new links, and grown
// monotone counters (tweet count, mention/retweet/comment strengths).
type GrowthConfig struct {
	// NewUsers users are appended (original ids stay stable, which is
	// what keeps the ground truth the identity map on old ids).
	NewUsers int
	// NewEdgeFrac adds, per link type, this fraction of the existing edge
	// count as brand-new edges with random endpoints.
	NewEdgeFrac float64
	// StrengthGrowProb is the chance each existing weighted edge gains
	// additional interactions (a geometric increment).
	StrengthGrowProb float64
	// TweetGrowProb is the chance each user's tweet count grows.
	TweetGrowProb float64
	// TagAddProb is the chance a user acquires one extra tag (tag sets
	// only grow; the matcher treats target tags as a subset requirement).
	TagAddProb float64
	// Seed drives the growth randomness.
	Seed uint64
}

// DefaultGrowth returns a moderate growth configuration: ~5% new users,
// ~10% new edges, and gentle counter growth.
func DefaultGrowth(seed uint64) GrowthConfig {
	return GrowthConfig{
		NewUsers:         0, // set proportionally by callers that want it
		NewEdgeFrac:      0.10,
		StrengthGrowProb: 0.15,
		TweetGrowProb:    0.30,
		TagAddProb:       0.05,
		Seed:             seed,
	}
}

// Grow returns a new dataset representing the auxiliary crawl: a strict
// superset of d in users and links, with monotonically grown counters.
// Entity ids of d are preserved, so d's id i denotes the same individual
// in the grown dataset.
func Grow(d *Dataset, cfg Config, gcfg GrowthConfig) (*Dataset, error) {
	if gcfg.NewUsers < 0 || gcfg.NewEdgeFrac < 0 {
		return nil, fmt.Errorf("tqq: negative growth")
	}
	geo, err := randx.NewGeometric(cfg.StrengthP)
	if err != nil {
		return nil, fmt.Errorf("tqq: %w", err)
	}
	tweetGrowth, err := randx.NewGeometric(0.05) // mean 20 new tweets
	if err != nil {
		return nil, err
	}
	strengthGrowth, err := randx.NewGeometric(0.5)
	if err != nil {
		return nil, err
	}
	rng := randx.New(gcfg.Seed)
	g := d.Graph
	schema := g.Schema()
	n := g.NumEntities()
	b := hin.NewBuilder(schema)

	gender, err := randx.NewAlias(cfg.GenderWeights)
	if err != nil {
		return nil, err
	}
	tagPop, err := randx.NewAlias(randx.ZipfWeights(cfg.TagUniverse, cfg.TagZipf))
	if err != nil {
		return nil, err
	}

	// Existing users: copy, with grown counters and possibly a new tag.
	prng := rng.Split(1)
	for v := 0; v < n; v++ {
		id := hin.EntityID(v)
		yob := g.Attr(id, AttrYob)
		gen := g.Attr(id, AttrGender)
		tweets := g.Attr(id, AttrTweets)
		if prng.Bool(gcfg.TweetGrowProb) {
			tweets += int64(tweetGrowth.Sample(prng))
		}
		tags := append([]int32(nil), g.Set(TagsAttr, id)...)
		if prng.Bool(gcfg.TagAddProb) && len(tags) < cfg.TagUniverse {
			for {
				t := int32(tagPop.Sample(prng))
				if !containsInt32(tags, t) {
					tags = append(tags, t)
					break
				}
			}
		}
		nid := b.AddEntity(0, g.Label(id), yob, gen, tweets, int64(len(tags)))
		if len(tags) > 0 {
			b.SetSet(TagsAttr, nid, tags)
		}
	}
	// New users.
	for v := 0; v < gcfg.NewUsers; v++ {
		yob := int64(prng.IntRange(cfg.YearMin, cfg.YearMax))
		gen := int64(gender.Sample(prng))
		tweets := int64(prng.LogUniformInt(0, cfg.TweetCountMax))
		ntags := prng.Intn(cfg.MaxTags + 1)
		nid := b.AddEntity(0, fmt.Sprintf("g%07d", v), yob, gen, tweets, int64(ntags))
		if ntags > 0 {
			tags := make([]int32, 0, ntags)
			for len(tags) < ntags {
				t := int32(tagPop.Sample(prng))
				if !containsInt32(tags, t) {
					tags = append(tags, t)
				}
			}
			b.SetSet(TagsAttr, nid, tags)
		}
	}

	total := n + gcfg.NewUsers
	erng := rng.Split(2)
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		weighted := schema.LinkType(ltid).Weighted
		// Copy existing edges with possible strength growth.
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdges(ltid, hin.EntityID(v))
			for i, to := range tos {
				w := ws[i]
				if weighted && erng.Bool(gcfg.StrengthGrowProb) {
					w += int32(strengthGrowth.Sample(erng))
				}
				if err := b.AddEdge(ltid, hin.EntityID(v), to, w); err != nil {
					return nil, err
				}
			}
		}
		// New edges anywhere in the grown network.
		extra := int64(float64(g.NumEdges(ltid)) * gcfg.NewEdgeFrac)
		for e := int64(0); e < extra; e++ {
			from := hin.EntityID(erng.Intn(total))
			to := hin.EntityID(erng.Intn(total))
			if from == to {
				continue
			}
			w := int32(1)
			if weighted {
				w = strength(geo, cfg.StrengthMax, erng)
			}
			if err := b.AddEdge(ltid, from, to, w); err != nil {
				return nil, err
			}
		}
	}
	ng, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Graph:       ng,
		Items:       d.Items,
		Rec:         d.Rec,
		Communities: d.Communities,
	}, nil
}

func containsInt32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
