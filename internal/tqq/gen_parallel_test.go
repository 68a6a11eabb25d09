package tqq

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
)

// fingerprint hashes everything observable about a dataset: entity labels
// and attributes, tag sets, every edge (with strength) of every link
// type, the recommendation log, and the community memberships. Two
// datasets fingerprint equal iff they are byte-identical to every
// consumer in the repository.
func fingerprint(d *Dataset) [sha256.Size]byte {
	h := sha256.New()
	le := binary.LittleEndian
	var buf [8]byte
	wi := func(v int64) {
		le.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	g := d.Graph
	wi(int64(g.NumEntities()))
	for v := 0; v < g.NumEntities(); v++ {
		id := hin.EntityID(v)
		h.Write([]byte(g.Label(id)))
		for _, a := range g.Attrs(id) {
			wi(a)
		}
		for _, tag := range g.Set(TagsAttr, id) {
			wi(int64(tag))
		}
		for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
			tos, ws := g.OutEdges(hin.LinkTypeID(lt), id)
			wi(int64(len(tos)))
			for i := range tos {
				wi(int64(tos[i]))
				wi(int64(ws[i]))
			}
		}
	}
	wi(int64(len(d.Rec)))
	for _, r := range d.Rec {
		wi(int64(r.User))
		wi(int64(r.Item))
		if r.Accepted {
			wi(1)
		} else {
			wi(0)
		}
	}
	for _, c := range d.Communities {
		wi(int64(len(c)))
		for _, id := range c {
			wi(int64(id))
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestGenerateParallelEquivalence is the tentpole guarantee: the sharded
// generator produces byte-identical output at every worker count and
// GOMAXPROCS setting. The configuration spans multiple shards
// (6000 users = 3 shards of genShardUsers) and two communities so every
// parallel stage (profiles, planting, background, rec log) is exercised.
func TestGenerateParallelEquivalence(t *testing.T) {
	cfg := DefaultConfig(3*genShardUsers-100, 42)
	cfg.Communities = []CommunitySpec{
		{Size: 150, Density: 0.01},
		{Size: 150, Density: 0.004},
	}

	gen := func(workers int) [sha256.Size]byte {
		c := cfg
		c.Workers = workers
		d, err := Generate(c)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		return fingerprint(d)
	}

	serial := gen(1)
	for _, workers := range []int{2, 3, 8} {
		if got := gen(workers); got != serial {
			t.Fatalf("Workers=%d output differs from serial", workers)
		}
	}

	// Workers=0 means GOMAXPROCS; pin GOMAXPROCS to 1 and to NumCPU and
	// demand the same bytes again.
	prev := runtime.GOMAXPROCS(1)
	atOne := gen(0)
	runtime.GOMAXPROCS(runtime.NumCPU())
	atAll := gen(0)
	runtime.GOMAXPROCS(prev)
	if atOne != serial {
		t.Fatal("GOMAXPROCS=1 output differs from serial")
	}
	if atAll != serial {
		t.Fatal("GOMAXPROCS=NumCPU output differs from serial")
	}
}

// TestGeneratePinned pins the generated datasets themselves, where the
// equivalence tests only compare worker counts with each other: a changed
// digest means the generator's output moved, and with it every table,
// golden and benchmark input derived from it. The configurations are
// TestGenerateParallelEquivalence's multi-shard one, and a 20k-user
// network with four 1000-user communities at density 0.01 (the shape of
// perfbench's pipeline workload, with a fifth of its users).
func TestGeneratePinned(t *testing.T) {
	multi := DefaultConfig(3*genShardUsers-100, 42)
	multi.Communities = []CommunitySpec{{Size: 150, Density: 0.01}, {Size: 150, Density: 0.004}}
	pipeline := DefaultConfig(20000, 1)
	for range 4 {
		pipeline.Communities = append(pipeline.Communities, CommunitySpec{Size: 1000, Density: 0.01})
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		edges int64
		want  string
	}{
		{"multi-shard", multi, 150850, "4aa370a8c6e68d958ad79aa388e4b29fa6ea4e2db39bfb4e298d0c215a33b44a"},
		{"pipeline-20k", pipeline, 656609, "c458e122552f57925f853e37b266e6320bc113a5eddff64007310aefe31a5abd"},
	} {
		d, err := Generate(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := d.Graph.NumEdgesTotal(); got != c.edges {
			t.Errorf("%s: %d edges, want %d", c.name, got, c.edges)
		}
		if got := fmt.Sprintf("%x", fingerprint(d)); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGenerateShardBoundaries pins the shard layout the equivalence
// guarantee depends on: shard count is a function of Users alone, so a
// worker-pool change can never move a shard boundary (and with it every
// downstream random draw).
func TestGenerateShardBoundaries(t *testing.T) {
	cases := []struct{ users, want int }{
		{1, 1},
		{genShardUsers, 1},
		{genShardUsers + 1, 2},
		{10 * genShardUsers, 10},
	}
	for _, c := range cases {
		if got := userShards(c.users); got != c.want {
			t.Errorf("userShards(%d) = %d, want %d", c.users, got, c.want)
		}
	}
}

// TestGenerateOrderingSpecified pins the generator's output ordering:
// the tasks feed the builder in task order, unsorted, and Build sorts
// every row and merges duplicate pairs, so every CSR row must come out
// strictly ascending whichever task emitted which edge. Community member
// lists must be ascending too.
func TestGenerateOrderingSpecified(t *testing.T) {
	cfg := DefaultConfig(1200, 9)
	cfg.Workers = 4
	cfg.Communities = []CommunitySpec{{Size: 120, Density: 0.008}}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
		for v := 0; v < g.NumEntities(); v++ {
			tos, _ := g.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for i := 1; i < len(tos); i++ {
				if tos[i-1] >= tos[i] {
					t.Fatalf("lt %d src %d: destinations not strictly ascending at %d (%v)",
						lt, v, i, tos[max(0, i-2):min(len(tos), i+2)])
				}
			}
		}
	}
	// Communities are part of the ordering contract too: ascending ids.
	for ci, members := range d.Communities {
		for i := 1; i < len(members); i++ {
			if members[i-1] >= members[i] {
				t.Fatalf("community %d not ascending at %d", ci, i)
			}
		}
	}
}

func BenchmarkGenerateParallel(b *testing.B) {
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig(12000, 1)
			cfg.Workers = workers
			cfg.Communities = []CommunitySpec{{Size: 500, Density: 0.01}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
