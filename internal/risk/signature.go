package risk

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
)

// SignatureConfig selects which information feeds the attribute-metapath-
// combined value of each entity (Section 4.1).
type SignatureConfig struct {
	// MaxDistance is n, the maximum distance of utilized neighbors:
	// 0 uses only the entity's own attributes, 1 adds immediate
	// neighbors along the selected link types, and so on.
	MaxDistance int
	// LinkTypes are the target network schema link types to utilize;
	// empty means all of them, as in dehin.Config. Table 1 sweeps the 15
	// non-empty subsets of {f,m,c,r}.
	LinkTypes []hin.LinkTypeID
	// EntityAttrs are the scalar attribute indices contributing to the
	// distance-0 value. The paper's Section 6.1 uses only the number of
	// tags "to better observe the growth of risk". Indices are validated
	// upfront against every entity type of the graph's schema.
	EntityAttrs []int
	// Workers bounds the refinement worker pool: 0 means GOMAXPROCS.
	// Signatures are positionally determined per fixed-width entity
	// shard, so the result is byte-identical for every Workers and
	// GOMAXPROCS value (fingerprint-tested).
	Workers int
	// Metrics receives sweep counters and the run-latency histogram.
	// Nil disables instrumentation (the obs contract: one branch off).
	Metrics *obs.Registry
	// Trace receives a per-sweep root span with one child per refinement
	// round and per-worker shard lanes. Nil disables tracing.
	Trace *trace.Tracer
}

// Signatures computes, for every entity, a 64-bit hash of its attribute-
// metapath-combined value at the configured distance. Two entities receive
// equal signatures exactly when the paper's recursive feature expansion
// cannot tell them apart (up to hash collisions, which at 64 bits are
// negligible for the network sizes involved):
//
//	sig_0(v) = H(selected attributes of v)
//	sig_d(v) = H(sig_{d-1}(v),
//	             per link type: sorted multiset of (strength, sig_{d-1}(u))
//	             over out-neighbors u)
//
// This is a depth-bounded Weisfeiler-Lehman refinement with typed,
// weighted edges: exactly the equivalence induced by expanding "5-time-
// mentionee's yob, 5-time-mentionee's gender, ..." feature vectors, without
// materializing the exponential feature space.
//
// Refinement rounds run on the internal/par worker pool (cfg.Workers);
// the output is byte-identical at every worker count.
func Signatures(g hin.GraphBackend, cfg SignatureConfig) ([]uint64, error) {
	return sweep(g, cfg, nil)
}

// validateSignatureConfig front-loads every input check so the refinement
// rounds run branch-free: distance and link types against the schema, and
// attribute indices against every entity type the schema declares (an
// upfront schema property, not a per-entity one — an index must be valid
// for all types or the distance-0 hash would be ill-defined).
func validateSignatureConfig(g hin.GraphBackend, cfg SignatureConfig) error {
	if cfg.MaxDistance < 0 {
		return fmt.Errorf("risk: negative MaxDistance")
	}
	s := g.Schema()
	for _, lt := range cfg.LinkTypes {
		if int(lt) >= s.NumLinkTypes() {
			return fmt.Errorf("risk: link type %d out of range", lt)
		}
	}
	for _, ai := range cfg.EntityAttrs {
		if ai < 0 {
			return fmt.Errorf("risk: negative attr index %d", ai)
		}
		for t := 0; t < s.NumEntityTypes(); t++ {
			et := s.EntityType(hin.EntityTypeID(t))
			if ai >= len(et.Attrs) {
				return fmt.Errorf("risk: attr index %d out of range for entity type %q", ai, et.Name)
			}
		}
	}
	return nil
}

// NetworkRisk computes the dataset privacy risk R(T) = C(T)/N of Theorem 1
// over the attribute-metapath-combined values at the configured distance.
// Callers that also need the cardinality, the signatures, or risk at every
// intermediate distance should use NetworkSweep, which shares one sweep.
func NetworkRisk(g hin.GraphBackend, cfg SignatureConfig) (float64, error) {
	sigs, err := Signatures(g, cfg)
	if err != nil {
		return 0, err
	}
	return DatasetRisk(sigs, nil), nil
}

// NetworkCardinality computes C(T*_G) at the configured distance.
func NetworkCardinality(g hin.GraphBackend, cfg SignatureConfig) (int, error) {
	sigs, err := Signatures(g, cfg)
	if err != nil {
		return 0, err
	}
	return Cardinality(sigs), nil
}

// Signature hashing. The seed is the FNV-1a offset basis (kept from the
// original byte-at-a-time implementation), but each 64-bit word now folds
// in with three multiplies of murmur3-style word mixing instead of eight
// FNV byte rounds. Signature *values* differ from the byte-wise scheme;
// the induced partition — the only thing risk depends on — is identical,
// because equal inputs still hash equal and distinct inputs still separate
// (64-bit collisions stay negligible).

const (
	fnvOffset = 14695981039346656037
	hashMul1  = 0xff51afd7ed558ccd
	hashMul2  = 0xc4ceb9fe1a85ec53
)

func newHash() uint64 { return fnvOffset }

// hashUint64 folds one word into the running hash: mix the word
// (multiply, rotate, multiply), xor it in, then diffuse the accumulator
// (rotate, multiply-add). Three multiplies per word, no data-dependent
// branches, nothing allocated.
//
//hin:hot
func hashUint64(h, v uint64) uint64 {
	v *= hashMul1
	v = v<<31 | v>>33
	v *= hashMul2
	h ^= v
	h = h<<27 | h>>37
	return h*5 + 0x52dce729
}

//hin:hot
func hashInt64(h uint64, v int64) uint64 { return hashUint64(h, uint64(v)) }
