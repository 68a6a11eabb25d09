package randx

import (
	"fmt"
	"math"
	"sort"
)

// PowerLaw samples integers k in [Min, Max] with P(k) proportional to
// k^(-Alpha). It precomputes the cumulative distribution once and samples
// by binary search, so a sampler can be shared across millions of draws.
//
// This is the out-degree model the paper assumes in Theorem 2
// ("the out-degree k of each entity follows the power-law distribution
// P(k) = c k^-alpha ... with alpha in [2,3]").
type PowerLaw struct {
	min, max int
	alpha    float64
	cdf      []float64 // cdf[i] = P(K <= min+i)
}

// NewPowerLaw builds a discrete power-law sampler on [min, max] with the
// given exponent. It returns an error if min < 1, max < min, or alpha <= 0.
func NewPowerLaw(min, max int, alpha float64) (*PowerLaw, error) {
	if min < 1 {
		return nil, fmt.Errorf("randx: power law min must be >= 1, got %d", min)
	}
	if max < min {
		return nil, fmt.Errorf("randx: power law max %d < min %d", max, min)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("randx: power law alpha must be positive, got %g", alpha)
	}
	n := max - min + 1
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(min+i), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &PowerLaw{min: min, max: max, alpha: alpha, cdf: cdf}, nil
}

// Sample draws one value from the distribution using g.
func (p *PowerLaw) Sample(g *RNG) int {
	u := g.Float64()
	i := sort.SearchFloat64s(p.cdf, u)
	if i >= len(p.cdf) {
		i = len(p.cdf) - 1
	}
	return p.min + i
}

// Mean returns the exact mean of the (truncated, discrete) distribution.
func (p *PowerLaw) Mean() float64 {
	mean := 0.0
	prev := 0.0
	for i, c := range p.cdf {
		mean += float64(p.min+i) * (c - prev)
		prev = c
	}
	return mean
}

// Geometric samples the number of trials until the first success of
// probability p (support 1, 2, ...) by inverting the CDF. NewGeometric
// also tabulates where the inverse CDF steps: cut[j] is the last 53-bit
// draw x, found by bisection, whose closed form k = ceil(log1p(-u) /
// log1p(-p)) at u = x/2^53 is at most j+1. Sample draws that integer, the
// one Float64 would divide by 2^53, and returns the bracket it falls in,
// so a draw takes no logarithm. A draw within geoWindow of a cut, or past the last one, takes
// the closed form, so the table returns exactly what the closed form does
// without having to agree with log1p on a rounding tie. RNG.Geometric
// draws once for a given p and builds no table.
type Geometric struct {
	p    float64
	logq float64  // log1p(-p)
	cut  []uint64 // ascending; nil for RNG.Geometric
}

const (
	// geoMaxCuts bounds the table: at p = 0.35 a draw lies past the 64th
	// cut with probability about 1e-12.
	geoMaxCuts = 64
	// geoWindow is how close to a cut a draw must lie to take the closed
	// form. log1p errs by under one ulp, which blurs a step of the closed
	// form over a few draws at most.
	geoWindow = 1 << 12
)

// NewGeometric builds a geometric sampler with success probability p. It
// returns an error unless 0 < p <= 1. The table takes up to geoMaxCuts
// bisections of 53 closed-form steps each, under 0.1 ms, so a caller
// builds one sampler and draws from it many times.
func NewGeometric(p float64) (*Geometric, error) {
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("randx: geometric p must be in (0, 1], got %g", p)
	}
	d := &Geometric{p: p, logq: math.Log1p(-p)}
	if p == 1 {
		return d, nil
	}
	// Bisect each step of the closed form over [cut[j-1], 2^53). The
	// predicate compares the ceiling as a float, so a draw whose quotient
	// overflows an int cannot make it non-monotone.
	lo := uint64(0)
	for j := 0; j < geoMaxCuts && lo < 1<<53-1; j++ {
		k := float64(j + 1)
		hi := uint64(1 << 53) // first draw known to exceed k
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if d.ceil(mid) <= k {
				lo = mid
			} else {
				hi = mid
			}
		}
		d.cut = append(d.cut, lo)
	}
	return d, nil
}

// ceil is the closed form before it is clamped to the support: for
// u = x/2^53, the smallest k with 1-(1-p)^k >= u.
func (d *Geometric) ceil(x uint64) float64 {
	return math.Ceil(math.Log1p(-float64(x)/(1<<53)) / d.logq)
}

// Sample draws one value using g, consuming the stream exactly as one
// Float64 does. With p == 1 it is always 1 and consumes no randomness.
func (d *Geometric) Sample(g *RNG) int {
	if d.p == 1 {
		return 1
	}
	x := g.r.Uint64() << 11 >> 11
	lo := uint64(0)
	for j, c := range d.cut {
		if x <= c {
			if x >= lo && c-x >= geoWindow {
				return j + 1
			}
			break
		}
		lo = c + geoWindow
	}
	return max(1, int(d.ceil(x)))
}

// Alias is a Walker alias-method sampler over a finite distribution: O(n)
// preprocessing, O(1) per draw. It is used for weighted categorical
// attributes (year of birth, tag popularity, item popularity).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the given non-negative weights. It
// returns an error if weights is empty, contains a negative or non-finite
// value, or sums to zero.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("randx: alias table needs at least one weight")
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("randx: alias weight %d is invalid (%g)", i, w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("randx: alias weights sum to zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// Sample draws one index from the distribution using g.
func (a *Alias) Sample(g *RNG) int {
	i := g.Intn(len(a.prob))
	if g.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len returns the number of categories.
func (a *Alias) Len() int { return len(a.prob) }

// ZipfWeights returns n weights with weight(i) proportional to
// (i+1)^(-s), the standard Zipf popularity profile. Combined with NewAlias
// it yields an O(1) Zipf sampler over a fixed universe.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}
