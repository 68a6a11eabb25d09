package dehin

import (
	"fmt"
	"slices"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/par"
)

// profileIndex buckets auxiliary entities by their exact-match attribute
// tuple and keeps their growable attributes in a flat column. With the
// t.qq profile this is a (yob, gender) index - it turns Algorithm 1's scan
// over millions of auxiliary users into a few hundred comparisons.
//
// Each distinct tuple is a class, numbered by first occurrence in entity
// order (classTable), so two entities share a class exactly when their
// tuples are equal. buckets lists each class's entities by ascending id;
// class (4 B per entity) and grow (8 B per GrowAttrs entry per entity,
// entity-major) are indexed by auxiliary entity. A class fixes the exact
// attributes, so with the profile-derived matcher the attack compares only
// grow rows (and SubsetSets) on bucket entries and on the class-equal
// pairs of neighborGraph's join (the target side's classes and grow rows
// are filled per target graph by Attack.ensureMemo). A custom EntityMatch
// is called there instead; Config.UseIndex requires it to imply equality
// on the exact attributes.
type profileIndex struct {
	aux  hin.GraphBackend
	spec ProfileSpec
	classTable
	buckets [][]hin.EntityID // indexed by class
	class   []int32          // indexed by auxiliary entity
	grow    []int64          // len(spec.GrowAttrs) values per auxiliary entity
}

// classTable numbers exact-attribute tuples as dense classes in order of
// first insertion. A tuple is hashed to a 64-bit key (exactKey); classOf
// maps a key to the first class with that key, and chain links the
// classes whose distinct tuples share it, so a lookup is one integer map
// probe and a tuple compare - a chain longer than one class needs a
// 64-bit key collision.
type classTable struct {
	width   int              // values per tuple
	classOf map[uint64]int32 // key -> first class with that key
	keys    []uint64         // by class
	chain   []int32          // by class: next class with the same key, or -1
	tuples  []int64          // by class, width values each
}

func newClassTable(width int) classTable {
	return classTable{width: width, classOf: make(map[uint64]int32)}
}

// tuple returns class c's tuple.
func (t *classTable) tuple(c int32) []int64 {
	return t.tuples[int(c)*t.width:][:t.width]
}

// intern returns the class of tuple, whose key is key, numbering a new
// class if the tuple is new.
func (t *classTable) intern(key uint64, tuple []int64) int32 {
	c, seen := t.classOf[key]
	for seen {
		if slices.Equal(t.tuple(c), tuple) {
			return c
		}
		if t.chain[c] < 0 {
			break
		}
		c = t.chain[c]
	}
	fresh := int32(len(t.keys))
	if seen {
		t.chain[c] = fresh
	} else {
		t.classOf[key] = fresh
	}
	t.keys = append(t.keys, key)
	t.chain = append(t.chain, -1)
	t.tuples = append(t.tuples, tuple...)
	return fresh
}

// shardRows is how many auxiliary entities one build task of the index
// or the degree signature covers; boundaries depend only on the entity
// count, never the worker count.
const shardRows = 1 << 14

// buildProfileIndex indexes the auxiliary graph on a pool of workers
// (0 = GOMAXPROCS). The index is identical at any count: each shard reads
// a fixed entity range once, writing its grow rows and numbering its
// tuples under shard-local class ids by first occurrence, and records each
// entity's local class in its range of the class column; the shards then
// merge in shard order, which maps every local id to its global one
// without reading an entity again. Every bucket so lists its entities
// ascending, as a serial scan appends them, and every class id and chain
// is the one a serial scan builds.
func buildProfileIndex(aux hin.GraphBackend, spec ProfileSpec, workers int) (*profileIndex, error) {
	if err := validateProfileSpec(aux.Schema(), spec); err != nil {
		return nil, err
	}
	n := aux.NumEntities()
	ng := len(spec.GrowAttrs)
	idx := &profileIndex{
		aux:        aux,
		spec:       spec,
		classTable: newClassTable(len(spec.ExactAttrs)),
		class:      make([]int32, n),
		grow:       make([]int64, n*ng),
	}
	type shard struct {
		classTable
		members [][]hin.EntityID // by local class
		global  []int32          // local class -> class, filled by the merge
	}
	shards := make([]shard, par.Shards(n, shardRows))
	par.Sweep(workers, n, shardRows, func(_, lo, hi int) {
		sh := shard{classTable: newClassTable(len(spec.ExactAttrs))}
		tuple := make([]int64, len(spec.ExactAttrs))
		for v := lo; v < hi; v++ {
			id := hin.EntityID(v)
			var key uint64
			for k, ai := range spec.ExactAttrs {
				tuple[k] = aux.Attr(id, ai)
				key = mixKey(key, tuple[k])
			}
			for k, ai := range spec.GrowAttrs {
				idx.grow[v*ng+k] = aux.Attr(id, ai)
			}
			c := sh.intern(key, tuple)
			if int(c) == len(sh.members) {
				sh.members = append(sh.members, nil)
			}
			sh.members[c] = append(sh.members[c], id)
			idx.class[v] = c
		}
		shards[lo/shardRows] = sh
	})
	for s := range shards {
		sh := &shards[s]
		sh.global = make([]int32, len(sh.keys))
		for l := range sh.global {
			c := idx.intern(sh.keys[l], sh.tuple(int32(l)))
			if int(c) == len(idx.buckets) {
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

// mixKey folds one exact-attribute value into a running key: one
// SplitMix64 finalizer round per value, so that both the values and their
// order reach every key bit.
func mixKey(key uint64, val int64) uint64 {
	key ^= uint64(val)
	key += 0x9e3779b97f4a7c15
	key = (key ^ key>>30) * 0xbf58476d1ce4e5b9
	key = (key ^ key>>27) * 0x94d049bb133111eb
	return key ^ key>>31
}

// exactKey folds the exact-match attribute tuple of v into 64 bits. An
// empty ExactAttrs list maps every entity to one key.
func exactKey(g hin.GraphBackend, v hin.EntityID, exact []int) uint64 {
	var key uint64
	for _, ai := range exact {
		key = mixKey(key, g.Attr(v, ai))
	}
	return key
}

// entityClass returns the class of g's entity v: the class of the
// auxiliary entities whose exact-attribute tuple is v's, or -1 when no
// auxiliary entity has that tuple. It compares g's attributes with the
// stored tuples in place, so it allocates nothing.
func (idx *profileIndex) entityClass(g hin.GraphBackend, v hin.EntityID) int32 {
	c, ok := idx.classOf[exactKey(g, v, idx.spec.ExactAttrs)]
	if !ok {
		return -1
	}
	for ; c >= 0; c = idx.chain[c] {
		if idx.holds(c, g, v) {
			return c
		}
	}
	return -1
}

// holds reports whether class c's tuple is g's entity v's.
func (idx *profileIndex) holds(c int32, g hin.GraphBackend, v hin.EntityID) bool {
	tuple := idx.tuple(c)
	for k, ai := range idx.spec.ExactAttrs {
		if g.Attr(v, ai) != tuple[k] {
			return false
		}
	}
	return true
}

// lookup returns the auxiliary entities whose exact-attribute tuple is
// the target's, in ascending id order; the profile stage still checks
// each one's growable attributes (and sets).
func (idx *profileIndex) lookup(target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	if c := idx.entityClass(target, tv); c >= 0 {
		return idx.buckets[c]
	}
	return nil
}

// covers reports whether auxiliary entity av's growable attributes are at
// least want's, attribute by attribute - the GrowAttrs clause of the
// profile-derived matcher, read off the grow column.
//
//hin:hot
func (idx *profileIndex) covers(av hin.EntityID, want []int64) bool {
	row := idx.grow[int(av)*len(want):][:len(want)]
	for k, w := range want {
		if row[k] < w {
			return false
		}
	}
	return true
}
