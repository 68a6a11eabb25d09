// Package dehin implements the paper's core contribution: the DeHIN
// de-anonymization attack against heterogeneous information networks
// (Section 5, Algorithms 1 and 2).
//
// Given an anonymized target graph and a non-anonymized auxiliary graph
// over the same target network schema, DeHIN computes, for each target
// entity, the candidate set of auxiliary entities whose profile attributes
// match (Algorithm 1) and whose typed neighborhoods recursively match up
// to the configured distance, deciding neighborhood compatibility by
// maximum bipartite matching per link type (Algorithm 2, Hopcroft-Karp).
// A candidate set of size one that names the right individual is a
// successful de-anonymization.
package dehin

import (
	"slices"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

// EntityMatcher decides whether auxiliary entity av could be target entity
// tv - the paper's configurable entity_attribute_match. Implementations
// must be conservative in one direction only: the true counterpart must
// always match (no false negatives), or the attack silently loses recall.
type EntityMatcher func(tg, ag hin.GraphBackend, tv, av hin.EntityID) bool

// LinkMatcher decides whether an auxiliary link strength is compatible
// with a target link strength - the paper's link_attribute_match.
type LinkMatcher func(targetW, auxW int32) bool

// GrowthLinkMatcher accepts any auxiliary strength at least the target
// strength, per the threat model: interaction counters only grow between
// the target release and the auxiliary crawl.
func GrowthLinkMatcher(targetW, auxW int32) bool { return auxW >= targetW }

// ExactLinkMatcher requires identical strengths - the time-synchronized
// special case.
func ExactLinkMatcher(targetW, auxW int32) bool { return auxW == targetW }

// ProfileSpec declares how profile attributes are compared, by role:
// ExactAttrs must be equal (immutable facts such as year of birth and
// gender), GrowAttrs may only grow (counters such as tweet count and
// number of tags), and SubsetSets are set attributes where the target's
// value must be a subset of the auxiliary's (tag sets only gain tags).
type ProfileSpec struct {
	ExactAttrs []int
	GrowAttrs  []int
	SubsetSets []string
}

// equal reports whether ps and o declare the same attributes in the same
// roles and order.
func (ps ProfileSpec) equal(o ProfileSpec) bool {
	return slices.Equal(ps.ExactAttrs, o.ExactAttrs) &&
		slices.Equal(ps.GrowAttrs, o.GrowAttrs) &&
		slices.Equal(ps.SubsetSets, o.SubsetSets)
}

// TQQProfile is the profile specification for the t.qq target schema: yob
// and gender exact; tweet count and number of tags growable. Tag IDs are
// deliberately NOT matched: the KDD Cup release replaced them with
// meaningless IDs, so only the tag count is joinable with the auxiliary
// data (an attack matching tag identities would be unsound against the
// real release - see anonymize.RandomizeIDs, which remaps them).
func TQQProfile() ProfileSpec {
	return ProfileSpec{
		ExactAttrs: []int{tqq.AttrYob, tqq.AttrGender},
		GrowAttrs:  []int{tqq.AttrTweets, tqq.AttrNumTags},
	}
}

// GrowthMatcher builds the growth-tolerant entity matcher the paper's
// evaluation uses: exact attributes equal, growable attributes
// auxiliary >= target, set attributes superset.
//
// It is the attack's EntityMatch when Config.EntityMatch is nil. With an
// index the attack never calls it: both stages compare the index's
// columns, which decide what this matcher decides on every pair of one
// exact-attribute class (the differential tests and
// FuzzDeanonymizeMatchesReference hold the two to the reference, which
// calls this matcher on every pair). Without an index every profile
// candidate and neighbour pair goes through it.
func (ps ProfileSpec) GrowthMatcher() EntityMatcher {
	return func(tg, ag hin.GraphBackend, tv, av hin.EntityID) bool {
		for _, i := range ps.ExactAttrs {
			if tg.Attr(tv, i) != ag.Attr(av, i) {
				return false
			}
		}
		for _, i := range ps.GrowAttrs {
			if ag.Attr(av, i) < tg.Attr(tv, i) {
				return false
			}
		}
		return ps.subsetSetsMatch(tg, ag, tv, av)
	}
}

// subsetSetsMatch checks the SubsetSets clause (target set a subset of the
// auxiliary's), for GrowthMatcher and the attack's column path alike.
func (ps ProfileSpec) subsetSetsMatch(tg, ag hin.GraphBackend, tv, av hin.EntityID) bool {
	for _, name := range ps.SubsetSets {
		if !sortedSubset(tg.Set(name, tv), ag.Set(name, av)) {
			return false
		}
	}
	return true
}

// ExactMatcher builds a strict matcher: every declared attribute equal and
// set attributes identical. Appropriate when target and auxiliary are
// time-synchronized snapshots.
func (ps ProfileSpec) ExactMatcher() EntityMatcher {
	return func(tg, ag hin.GraphBackend, tv, av hin.EntityID) bool {
		for _, i := range ps.ExactAttrs {
			if tg.Attr(tv, i) != ag.Attr(av, i) {
				return false
			}
		}
		for _, i := range ps.GrowAttrs {
			if tg.Attr(tv, i) != ag.Attr(av, i) {
				return false
			}
		}
		for _, name := range ps.SubsetSets {
			a, b := tg.Set(name, tv), ag.Set(name, av)
			if len(a) != len(b) {
				return false
			}
			if !sortedSubset(a, b) {
				return false
			}
		}
		return true
	}
}

// sortedSubset reports whether sorted slice sub is a subset of sorted
// slice sup.
func sortedSubset(sub, sup []int32) bool {
	j := 0
	for _, v := range sub {
		for j < len(sup) && sup[j] < v {
			j++
		}
		if j >= len(sup) || sup[j] != v {
			return false
		}
		j++
	}
	return true
}
