package dehin

import (
	"fmt"
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
// The bucket key is a 64-bit mix of the tuple (exactKey), so a lookup is
// one integer map probe with no allocation for any number of attributes
// and any int64 values. Distinct tuples may share a key; a bucket then
// holds both, which is safe because profileCandidates re-checks every
// entry with the entity matcher, and Config.UseIndex requires that
// matcher to imply equality on the exact attributes.
//
// keys holds every auxiliary entity's key, indexed by entity id (8 B per
// entity), for the neighbour stage, which relies on the same contract:
// neighborGraph rejects a neighbour pair whose keys differ before calling
// either matcher.
type profileIndex struct {
	aux     hin.GraphBackend
	spec    ProfileSpec
	primary int // attr index used for ordering, -1 if none
	buckets map[uint64][]hin.EntityID
	keys    []uint64
}

// shardRows is how many auxiliary entities one build task of the index
// or the degree signature covers; boundaries depend only on the entity
// count, never the worker count.
const shardRows = 1 << 14

// buildProfileIndex buckets the auxiliary graph on a pool of workers
// (0 = GOMAXPROCS). The index is identical at any count: each shard
// buckets a fixed entity range into a private map (recording keys in
// first-occurrence order, so no merge step ranges over a map) and keeps
// its entities' keys in a private column, and shards merge in shard
// order - every bucket lists its entities ascending, exactly as a serial
// scan appends them, which also makes the subsequent unstable per-bucket
// sort deterministic.
func buildProfileIndex(aux hin.GraphBackend, spec ProfileSpec, workers int) (*profileIndex, error) {
	if err := validateProfileSpec(aux.Schema(), spec); err != nil {
		return nil, err
	}
	idx := &profileIndex{
		aux:     aux,
		spec:    spec,
		primary: -1,
		buckets: make(map[uint64][]hin.EntityID),
	}
	if len(spec.GrowAttrs) > 0 {
		idx.primary = spec.GrowAttrs[0]
	}
	n := aux.NumEntities()
	type shard struct {
		keys   []uint64 // distinct keys, first-occurrence order
		column []uint64 // the key of every entity in the shard's range
		m      map[uint64][]hin.EntityID
	}
	shards := make([]shard, par.Shards(n, shardRows))
	par.Run(workers, len(shards), func(_, s int) {
		lo, hi := par.Bounds(s, n, shardRows)
		m := make(map[uint64][]hin.EntityID)
		var keys []uint64
		column := make([]uint64, 0, hi-lo)
		for v := lo; v < hi; v++ {
			key := exactKey(aux, hin.EntityID(v), spec.ExactAttrs)
			column = append(column, key)
			b, seen := m[key]
			if !seen {
				keys = append(keys, key)
			}
			m[key] = append(b, hin.EntityID(v))
		}
		shards[s].keys, shards[s].column, shards[s].m = keys, column, m
	})
	idx.keys = make([]uint64, 0, n)
	var keys []uint64
	for _, sh := range shards {
		idx.keys = append(idx.keys, sh.column...)
		for _, k := range sh.keys {
			b, seen := idx.buckets[k]
			if !seen {
				keys = append(keys, k)
			}
			idx.buckets[k] = append(b, sh.m[k]...)
		}
	}
	if idx.primary >= 0 {
		par.Run(workers, len(keys), func(_, i int) {
			b := idx.buckets[keys[i]]
			sort.Slice(b, func(x, y int) bool {
				return aux.Attr(b[x], idx.primary) > aux.Attr(b[y], idx.primary)
			})
		})
	}
	return idx, nil
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

// lookup returns the auxiliary entities whose exact-attribute tuple
// shares the target's key and whose primary growable attribute is >= the
// target's. The caller still applies the full entity matcher to each.
func (idx *profileIndex) lookup(target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	bucket := idx.buckets[exactKey(target, tv, idx.spec.ExactAttrs)]
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
