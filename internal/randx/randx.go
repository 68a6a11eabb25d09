// Package randx provides deterministic random number generation and the
// discrete distribution samplers used throughout the library: power laws
// (the out-degree model assumed by the paper's Theorem 2), Zipf, geometric,
// log-uniform, and an alias-method sampler for arbitrary finite
// distributions.
//
// All randomness in the repository flows through this package from explicit
// uint64 seeds, so every dataset, anonymization, and experiment is
// reproducible bit for bit.
package randx

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random number generator. It wraps a PCG
// source from math/rand/v2 and adds the derivation and sampling helpers the
// rest of the library needs.
type RNG struct {
	r *rand.Rand
}

// New returns an RNG seeded from seed. Two RNGs built from the same seed
// produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent RNG from the current one, identified by tag.
// Deriving with the same tag from RNGs in the same state yields the same
// child stream; different tags yield decorrelated streams. Split lets one
// dataset seed drive many independently consumable sub-streams (profiles,
// edges per link type, growth, ...) without the streams interfering.
func (g *RNG) Split(tag uint64) *RNG {
	a := g.r.Uint64()
	return &RNG{r: rand.New(rand.NewPCG(a^mix(tag), mix(a+tag)))}
}

// Fork pre-derives n independent child RNGs in one serial pass over the
// parent. The children are a pure function of the parent's state at the
// call, so handing Fork(n) streams to n concurrent workers yields output
// that is independent of how the workers are scheduled - the derivation
// order is fixed here, only the consumption runs in parallel. This is the
// sharding primitive behind the parallel tqq generator.
func (g *RNG) Fork(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = g.Split(uint64(i))
	}
	return out
}

// Shard returns the RNG for worker shard `shard` of the stream identified
// by seed. Unlike Split it is a pure function of (seed, shard) - no parent
// state is consumed - so callers can derive any shard's stream directly,
// in any order, from any goroutine.
func Shard(seed, shard uint64) *RNG {
	a := mix(seed) ^ mix(shard+0x9e3779b97f4a7c15)
	return &RNG{r: rand.New(rand.NewPCG(a, mix(a+shard)))}
}

// mix is the SplitMix64 finalizer, used to decorrelate derived seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (g *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("randx: IntRange with hi < lo")
	}
	return lo + g.r.IntN(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using the provided swap
// function, as in math/rand.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Geometric samples from a geometric distribution with success probability
// p, returning the number of trials until the first success (support 1, 2,
// ...). It panics unless 0 < p <= 1. It takes two logarithms and builds no
// table, so a caller drawing many values with one p should build a
// Geometric sampler once instead; both return the same draws.
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("randx: Geometric requires 0 < p <= 1")
	}
	d := Geometric{p: p, logq: math.Log1p(-p)}
	return d.Sample(g)
}

// LogUniformInt samples an integer in [lo, hi] whose logarithm is
// approximately uniform, producing the heavy-tailed value spread typical of
// counters such as tweet counts. It panics if lo < 0 or hi < lo.
func (g *RNG) LogUniformInt(lo, hi int) int {
	if lo < 0 || hi < lo {
		panic("randx: LogUniformInt requires 0 <= lo <= hi")
	}
	a := math.Log(float64(lo) + 1)
	b := math.Log(float64(hi) + 1)
	v := math.Exp(a+(b-a)*g.r.Float64()) - 1
	k := int(math.Round(v))
	if k < lo {
		k = lo
	}
	if k > hi {
		k = hi
	}
	return k
}

// SampleWithoutReplacement returns k distinct uniform values from [0, n).
// It panics if k > n or k < 0. The result is in random order.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("randx: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// For small k relative to n use a set-based draw; otherwise a partial
	// Fisher-Yates over the full range.
	if k*20 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := g.r.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + g.r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
