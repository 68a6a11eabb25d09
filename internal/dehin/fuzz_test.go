package dehin

import (
	"fmt"
	"math"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// FuzzProfileSpecValidate feeds arbitrary attribute-index lists through
// validateProfileSpec against the t.qq target schema. The invariant is
// twofold: validation never panics (NewAttack promises a clean error for
// any misconfigured spec, however hostile), and it agrees with the
// independent oracle below - a spec passes iff every scalar index fits
// inside every entity type of the schema.
func FuzzProfileSpecValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 2})       // the TQQProfile shape: exact 0, grow 1, set "x"
	f.Add([]byte{0, 0xFF, 1, 0x80})       // far out of range, both roles
	f.Add([]byte{0xFF, 0xFF, 0x80, 0x00}) // negative indexes
	f.Add([]byte{2, 'x', 0, 3, 1, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := tqq.TargetSchema()
		var spec ProfileSpec
		for i := 0; i+1 < len(data); i += 2 {
			// Both bytes feed the value so negative and far-out-of-range
			// indexes are reachable, not just 0..255.
			v := int(int16(uint16(data[i])<<8 | uint16(data[i+1])))
			switch data[i] % 3 {
			case 0:
				spec.ExactAttrs = append(spec.ExactAttrs, v)
			case 1:
				spec.GrowAttrs = append(spec.GrowAttrs, v)
			case 2:
				spec.SubsetSets = append(spec.SubsetSets, string(data[i+1:i+2]))
			}
		}

		err := validateProfileSpec(s, spec)

		// Oracle: an index is acceptable iff it is in range for EVERY
		// entity type, i.e. below the smallest attribute count.
		minAttrs := math.MaxInt
		for ti := 0; ti < s.NumEntityTypes(); ti++ {
			if n := len(s.EntityType(hin.EntityTypeID(ti)).Attrs); n < minAttrs {
				minAttrs = n
			}
		}
		valid := true
		for _, ai := range spec.ExactAttrs {
			valid = valid && ai >= 0 && ai < minAttrs
		}
		for _, ai := range spec.GrowAttrs {
			valid = valid && ai >= 0 && ai < minAttrs
		}

		if valid && err != nil {
			t.Fatalf("in-range spec rejected: %v (spec %+v)", err, spec)
		}
		if !valid && err == nil {
			t.Fatalf("out-of-range spec accepted (spec %+v)", spec)
		}
	})
}

// fuzzSchema is a one-type schema with two weighted link types, the
// smallest shape on which the class join, the recursion and both
// directions all matter, and one set attribute for SubsetSets.
var fuzzSchema = hin.MustSchema(
	[]hin.EntityType{{Name: "User", Attrs: []string{"yob", "gender", "tweets"}, SetAttrs: []string{"tags"}}},
	[]hin.LinkType{
		{Name: "a", From: "User", To: "User", Weighted: true},
		{Name: "b", From: "User", To: "User", Weighted: true},
	},
)

// FuzzDeanonymizeMatchesReference builds a small auxiliary graph from the
// input - at most 48 users with yob drawn from 3 values and gender from 2,
// so that exact-attribute classes are few and shared, a set of up to 4
// tags each, and links of two types with strengths 1 to 3 - cuts a target
// from it (a subset of the users, of their links, of their tweets and of
// their tags), shuffles the target's ids, and checks that for every target
// entity the engine's candidate set equals refDeanonymize's, which calls
// the profile-derived matcher on every pair the engine decides from the
// index's columns. Bits of the first flags byte choose the distance (1 or
// 2), NeighborTolerance, UseInEdges, majority-strength removal, the
// profile-only fallback, the index (with it every row is joined on (yob,
// gender) classes, without it every entity is in one class) and whether
// the profile has exact attributes at all (without them an index has one
// class). Bits of the second add the tags to Profile.SubsetSets and put
// the auxiliary graph on the compact backend (hin.FromGraph), the pair
// hinriskd attacks: an in-memory target against a CSR auxiliary graph.
func FuzzDeanonymizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 12, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x1d, 40, 3, 0x81, 0x42, 0x13, 0x04, 0x95, 0x26, 0x37, 0x48, 0x59, 0x6a, 0x7b, 0x8c,
		0x9d, 0xae, 0xbf, 0xc0, 0xd1, 0xe2, 0xf3, 0x14, 0x25, 0x36, 0x47, 0x58, 0x69, 0x7a, 0x8b, 0x9c,
		0xad, 0xbe, 0xcf, 0xd0, 0xe1, 0xf2, 0x03, 0x14, 0x25, 0x36, 0x47, 0x58, 0x69, 0x7a, 0x8b})
	f.Add([]byte{0x7f, 47, 9, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6, 0xf5, 0xf4})
	f.Add([]byte{0x01, 3, 14, 5, 0x0c, 0x3f, 0x13, 0x1e, 0x24, 0x0b, 0x06, 0x2d, 0x0f, 0x41, 0x30,
		0x07, 0x15, 0x1c, 0x5e, 0x2b, 0x27, 0x03, 0x12, 0x9b, 0x0d, 0x36, 0x21, 0x18, 0x0a,
		0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7, 8, 7, 8, 9, 0, 3, 10, 1, 4, 11})
	// A class-equal neighbour pair whose grow rows match and whose tags do
	// not: only the neighbour stage's set clause rejects it.
	f.Add([]byte("\xc91\x980000000000000000100700000072001Z0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		flags, flags2 := next(), next()
		users := 2 + int(next())%47
		shuffle := uint64(next())

		aux := hin.NewBuilder(fuzzSchema)
		cut := hin.NewBuilder(fuzzSchema)
		id := make([]hin.EntityID, users) // aux user -> cut entity, -1 if dropped
		for u := 0; u < users; u++ {
			x, y := next(), next()
			yob, gender, tweets := 1980+int64(x%3), int64(x/3%2), int64(x/6%4)
			av := aux.AddEntity(0, "", yob, gender, tweets+1)
			// The low nibble of y picks the user's tags, the high one
			// the tags the cut drops.
			var tags, kept []int32
			for k := int32(0); k < 4; k++ {
				if y>>k&1 != 0 {
					tags = append(tags, k)
					if y>>(4+k)&1 == 0 {
						kept = append(kept, k)
					}
				}
			}
			aux.SetSet("tags", av, tags)
			id[u] = -1
			if x&0x80 == 0 || u == 0 {
				id[u] = cut.AddEntity(0, "", yob, gender, tweets+1-int64(x>>6&1))
				cut.SetSet("tags", id[u], kept)
			}
		}
		// Each remaining triple is one auxiliary link; the target keeps it
		// (at a strength no larger) when both ends are kept and a bit says so.
		for links := 0; pos+2 < len(data) && links < 6*users; links++ {
			from, to, w := int(next())%users, int(next())%users, next()
			if from == to {
				continue
			}
			lt, strength := hin.LinkTypeID(w&1), int32(1+w>>1%3)
			if err := aux.AddEdge(lt, hin.EntityID(from), hin.EntityID(to), strength); err != nil {
				t.Fatal(err)
			}
			if id[from] >= 0 && id[to] >= 0 && w&0x40 == 0 {
				if err := cut.AddEdge(lt, id[from], id[to], max(1, strength-int32(w>>7))); err != nil {
					t.Fatal(err)
				}
			}
		}
		ag, err := aux.Build()
		if err != nil {
			t.Fatal(err)
		}
		cg, err := cut.Build()
		if err != nil {
			t.Fatal(err)
		}
		// The shuffle keeps tag values as they are: anonymize.RandomizeIDs
		// would remap them, leaving SubsetSets nothing to join.
		perm := make([]hin.EntityID, cg.NumEntities())
		for i, p := range randx.New(shuffle).Perm(len(perm)) {
			perm[i] = hin.EntityID(p)
		}
		target, _, err := cg.Induced(perm)
		if err != nil {
			t.Fatal(err)
		}

		cfg := Config{
			MaxDistance:            1 + int(flags&1),
			NeighborTolerance:      []float64{0, 0.25, 0.5, 0.75}[flags>>1&3],
			UseInEdges:             flags&8 != 0,
			UseIndex:               flags&16 == 0,
			RemoveMajorityStrength: flags&32 != 0,
			FallbackProfileOnly:    flags&64 != 0,
			Profile:                ProfileSpec{ExactAttrs: []int{0, 1}, GrowAttrs: []int{2}},
		}
		if flags&128 != 0 {
			cfg.Profile.ExactAttrs = nil
		}
		if flags2&1 != 0 {
			cfg.Profile.SubsetSets = []string{"tags"}
		}
		var auxG hin.GraphBackend = ag
		if flags2&2 != 0 {
			auxG = hin.FromGraph(ag)
		}
		name := fmt.Sprintf("%+v csr=%v", cfg, flags2&2 != 0)
		assertMatchesReference(t, name, auxG, target, cfg, target.NumEntities())
	})
}
