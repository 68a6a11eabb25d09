package dehin

import (
	"fmt"
	"math"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/hin"
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
// directions all matter.
var fuzzSchema = hin.MustSchema(
	[]hin.EntityType{{Name: "User", Attrs: []string{"yob", "gender", "tweets"}}},
	[]hin.LinkType{
		{Name: "a", From: "User", To: "User", Weighted: true},
		{Name: "b", From: "User", To: "User", Weighted: true},
	},
)

// FuzzDeanonymizeMatchesReference builds a small auxiliary graph from the
// input - at most 48 users with yob drawn from 3 values and gender from 2,
// so that exact-attribute classes are few and shared, and links of two
// types with strengths 1 to 3 - cuts a target from it (a subset of the
// users, of their links and of their tweets), shuffles the target's ids,
// and checks that for every target entity the engine's candidate set
// equals refDeanonymize's. Input bits choose the distance (1 or 2),
// NeighborTolerance, UseInEdges, majority-strength removal, the
// profile-only fallback, the index (with it every row is joined on
// (yob, gender) classes, without it every entity is in one class) and
// whether the profile has exact attributes at all (without them an index
// has one class).
func FuzzDeanonymizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 12, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x1d, 40, 3, 0x81, 0x42, 0x13, 0x04, 0x95, 0x26, 0x37, 0x48, 0x59, 0x6a, 0x7b, 0x8c,
		0x9d, 0xae, 0xbf, 0xc0, 0xd1, 0xe2, 0xf3, 0x14, 0x25, 0x36, 0x47, 0x58, 0x69, 0x7a, 0x8b, 0x9c,
		0xad, 0xbe, 0xcf, 0xd0, 0xe1, 0xf2, 0x03, 0x14, 0x25, 0x36, 0x47, 0x58, 0x69, 0x7a, 0x8b})
	f.Add([]byte{0x7f, 47, 9, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6, 0xf5, 0xf4})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		flags := next()
		users := 2 + int(next())%47
		shuffle := uint64(next())

		aux := hin.NewBuilder(fuzzSchema)
		cut := hin.NewBuilder(fuzzSchema)
		id := make([]hin.EntityID, users) // aux user -> cut entity, -1 if dropped
		for u := 0; u < users; u++ {
			x := next()
			yob, gender, tweets := 1980+int64(x%3), int64(x/3%2), int64(x/6%4)
			aux.AddEntity(0, "", yob, gender, tweets+1)
			id[u] = -1
			if x&0x80 == 0 || u == 0 {
				id[u] = cut.AddEntity(0, "", yob, gender, tweets+1-int64(x>>6&1))
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
		target, err := anonymize.RandomizeIDs(cg, shuffle)
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
		assertMatchesReference(t, fmt.Sprintf("%+v", cfg), ag, target.Graph, cfg, target.Graph.NumEntities())
	})
}
