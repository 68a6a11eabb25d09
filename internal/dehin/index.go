package dehin

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/par"
)

// profileIndex buckets auxiliary entities by their exact-match attribute
// tuple and sorts each bucket descending by the primary growable attribute,
// so a candidate lookup scans only entities that can still satisfy
// "auxiliary >= target" on that attribute. With the t.qq profile this is a
// (yob, gender) index ordered by tweet count - it turns Algorithm 1's scan
// over millions of auxiliary users into a few hundred comparisons.
//
// A tuple is hashed to a 64-bit key (exactKey), and each distinct key is a
// class: a dense id numbered by first occurrence in entity order. classOf
// maps a key to its class, buckets lists each class's entities, and class
// holds every auxiliary entity's class, indexed by entity id (4 B per
// entity). A lookup is then one integer map probe with no allocation for
// any number of attributes and any int64 values. Distinct tuples may share
// a key and so a class; a bucket then holds both, which is safe because
// profileCandidates re-checks every entry with the entity matcher, and
// Config.UseIndex requires that matcher to imply equality on the exact
// attributes.
//
// The neighbour stage relies on the same contract: neighborGraph pairs a
// target neighbour only with the auxiliary neighbours of its own class
// (the target side's classes are filled per target graph by
// Attack.ensureMemo), so a pair whose keys differ never reaches either
// matcher.
type profileIndex struct {
	aux     hin.GraphBackend
	spec    ProfileSpec
	primary int // attr index used for ordering, -1 if none
	classOf map[uint64]int32
	buckets [][]hin.EntityID // indexed by class
	class   []int32          // indexed by auxiliary entity
}

// shardRows is how many auxiliary entities one build task of the index
// or the degree signature covers; boundaries depend only on the entity
// count, never the worker count.
const shardRows = 1 << 14

// buildProfileIndex buckets the auxiliary graph on a pool of workers
// (0 = GOMAXPROCS). The index is identical at any count: each shard
// buckets a fixed entity range under shard-local class ids, numbered by
// first occurrence, and records each entity's local class in its range of
// the class column; the shards then merge in shard order, which maps every
// local id to its global one without hashing an entity again. Every
// bucket so lists its entities ascending, as a serial scan appends them,
// and every class id is the one a serial scan assigns. Each bucket is then
// sorted by (primary attribute descending, id ascending), a total order.
func buildProfileIndex(aux hin.GraphBackend, spec ProfileSpec, workers int) (*profileIndex, error) {
	if err := validateProfileSpec(aux.Schema(), spec); err != nil {
		return nil, err
	}
	n := aux.NumEntities()
	idx := &profileIndex{
		aux:     aux,
		spec:    spec,
		primary: -1,
		classOf: make(map[uint64]int32),
		class:   make([]int32, n),
	}
	if len(spec.GrowAttrs) > 0 {
		idx.primary = spec.GrowAttrs[0]
	}
	type shard struct {
		keys    []uint64         // distinct keys, by local class
		members [][]hin.EntityID // by local class
		global  []int32          // local class -> class, filled by the merge
	}
	shards := make([]shard, par.Shards(n, shardRows))
	par.Sweep(workers, n, shardRows, func(_, lo, hi int) {
		local := make(map[uint64]int32)
		var keys []uint64
		var members [][]hin.EntityID
		for v := lo; v < hi; v++ {
			key := exactKey(aux, hin.EntityID(v), spec.ExactAttrs)
			c, seen := local[key]
			if !seen {
				c = int32(len(keys))
				local[key] = c
				keys = append(keys, key)
				members = append(members, nil)
			}
			members[c] = append(members[c], hin.EntityID(v))
			idx.class[v] = c
		}
		shards[lo/shardRows] = shard{keys: keys, members: members}
	})
	for s := range shards {
		sh := &shards[s]
		sh.global = make([]int32, len(sh.keys))
		for l, key := range sh.keys {
			c, seen := idx.classOf[key]
			if !seen {
				c = int32(len(idx.buckets))
				idx.classOf[key] = c
				idx.buckets = append(idx.buckets, nil)
			}
			sh.global[l] = c
			idx.buckets[c] = append(idx.buckets[c], sh.members[l]...)
		}
	}
	par.Sweep(workers, n, shardRows, func(_, lo, hi int) {
		global := shards[lo/shardRows].global
		for v := lo; v < hi; v++ {
			idx.class[v] = global[idx.class[v]]
		}
	})
	if idx.primary >= 0 {
		idx.sortBuckets(workers)
	}
	return idx, nil
}

// sortBuckets orders every bucket by (primary attribute descending, id
// ascending). Each member's attribute is read once into a per-worker
// buffer, so the sort compares integers, not interface calls.
func (idx *profileIndex) sortBuckets(workers int) {
	type ranked struct {
		attr int64
		v    hin.EntityID
	}
	bufs := make([][]ranked, par.Workers(workers, len(idx.buckets)))
	par.Run(workers, len(idx.buckets), func(w, c int) {
		b := idx.buckets[c]
		r := bufs[w][:0]
		for _, v := range b {
			r = append(r, ranked{idx.aux.Attr(v, idx.primary), v})
		}
		slices.SortFunc(r, func(x, y ranked) int {
			if x.attr != y.attr {
				return cmp.Compare(y.attr, x.attr)
			}
			return cmp.Compare(x.v, y.v)
		})
		for i := range r {
			b[i] = r[i].v
		}
		bufs[w] = r
	})
}

// validateProfileSpec checks every scalar attribute index the spec names
// against every entity type of the schema, so misconfigured indexes fail
// at NewAttack/NewIndex time instead of producing silently empty candidate
// sets (or out-of-range attribute reads) per query.
func validateProfileSpec(s *hin.Schema, spec ProfileSpec) error {
	check := func(role string, attrs []int) error {
		for _, ai := range attrs {
			for t := 0; t < s.NumEntityTypes(); t++ {
				et := s.EntityType(hin.EntityTypeID(t))
				if ai < 0 || ai >= len(et.Attrs) {
					return fmt.Errorf("dehin: profile %s attr %d out of range for entity type %q (%d attrs)",
						role, ai, et.Name, len(et.Attrs))
				}
			}
		}
		return nil
	}
	if err := check("exact", spec.ExactAttrs); err != nil {
		return err
	}
	return check("grow", spec.GrowAttrs)
}

// exactKey folds the exact-match attribute tuple of v into 64 bits, one
// SplitMix64 finalizer round per attribute so that both the values and
// their order reach every key bit. An empty ExactAttrs list maps every
// entity to one bucket.
func exactKey(g hin.GraphBackend, v hin.EntityID, exact []int) uint64 {
	var key uint64
	for _, ai := range exact {
		key ^= uint64(g.Attr(v, ai))
		key += 0x9e3779b97f4a7c15
		key = (key ^ key>>30) * 0xbf58476d1ce4e5b9
		key = (key ^ key>>27) * 0x94d049bb133111eb
		key ^= key >> 31
	}
	return key
}

// entityClass returns the class of g's entity v: the class of the
// auxiliary entities whose exact-attribute tuple shares v's key, or -1
// when no auxiliary entity has that key.
func (idx *profileIndex) entityClass(g hin.GraphBackend, v hin.EntityID) int32 {
	if c, ok := idx.classOf[exactKey(g, v, idx.spec.ExactAttrs)]; ok {
		return c
	}
	return -1
}

// lookup returns the auxiliary entities whose exact-attribute tuple
// shares the target's key and whose primary growable attribute is >= the
// target's. The caller still applies the full entity matcher to each.
func (idx *profileIndex) lookup(target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	c := idx.entityClass(target, tv)
	if c < 0 {
		return nil
	}
	bucket := idx.buckets[c]
	if idx.primary < 0 {
		return bucket
	}
	want := target.Attr(tv, idx.primary)
	// Bucket is sorted descending; entries [0, i) have attr >= want.
	i := sort.Search(len(bucket), func(i int) bool {
		return idx.aux.Attr(bucket[i], idx.primary) < want
	})
	return bucket[:i]
}
