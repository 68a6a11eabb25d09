package randx

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical draws", same)
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	c1 := New(7).Split(3)
	c2 := New(7).Split(3)
	c3 := New(7).Split(4)
	for i := 0; i < 50; i++ {
		v1, v2, v3 := c1.Uint64(), c2.Uint64(), c3.Uint64()
		if v1 != v2 {
			t.Fatalf("same tag split diverged at %d", i)
		}
		if v1 == v3 {
			t.Fatalf("different tag splits coincided at %d", i)
		}
	}
}

func TestIntRange(t *testing.T) {
	g := New(1)
	for i := 0; i < 1000; i++ {
		v := g.IntRange(-3, 5)
		if v < -3 || v > 5 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if got := g.IntRange(9, 9); got != 9 {
		t.Fatalf("degenerate range: got %d", got)
	}
}

func TestIntRangePanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	New(1).IntRange(2, 1)
}

func TestGeometricSupportAndMean(t *testing.T) {
	g := New(11)
	const p = 0.25
	sum, n := 0, 200000
	for i := 0; i < n; i++ {
		v := g.Geometric(p)
		if v < 1 {
			t.Fatalf("geometric draw below support: %d", v)
		}
		sum += v
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("geometric mean %.3f, want ~%.3f", mean, 1/p)
	}
}

func TestGeometricPIsOne(t *testing.T) {
	g := New(5)
	for i := 0; i < 10; i++ {
		if v := g.Geometric(1); v != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", v)
		}
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for p=%g", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

// TestGeometricSamplerMatchesRNG draws from three streams of one seed: a
// shared Geometric sampler, RNG.Geometric, and the inverse-CDF formula
// with both logarithms taken per draw. They must agree draw for draw and
// leave their streams in the same state, at p = 1 too, where no
// randomness is consumed.
func TestGeometricSamplerMatchesRNG(t *testing.T) {
	for _, p := range []float64{0.35, 0.5, 0.9, 1} {
		d, err := NewGeometric(p)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := New(17), New(17), New(17)
		for i := 0; i < 100000; i++ {
			want := 1
			if p < 1 {
				want = max(1, int(math.Ceil(math.Log1p(-c.Float64())/math.Log1p(-p))))
			}
			if got, viaRNG := d.Sample(a), b.Geometric(p); got != want || viaRNG != want {
				t.Fatalf("p=%g draw %d: sampler %d, RNG.Geometric %d, formula %d", p, i, got, viaRNG, want)
			}
		}
		if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != y || y != z {
			t.Fatalf("p=%g: streams diverged after the draws", p)
		}
	}
}

// closedGeometric is the inverse CDF Geometric.Sample stood for before
// it had a table: the smallest k >= 1 with 1-(1-p)^k >= u at u = x/2^53.
func closedGeometric(p float64, x uint64) int {
	return max(1, int(math.Ceil(math.Log1p(-float64(x)/(1<<53))/math.Log1p(-p))))
}

// drawOf returns an RNG whose every Uint64 is x, so that a sampler's next
// 53-bit draw is x for x < 2^53.
func drawOf(x uint64) *RNG { return &RNG{r: rand.New(fixedSource(x))} }

type fixedSource uint64

func (s fixedSource) Uint64() uint64 { return uint64(s) }

// TestGeometricTableMatchesClosedForm checks the table against the closed
// form on every draw within 2^14 of each cut, where the table hands over
// to the closed form or would disagree first if a cut were off, and on
// random draws; at p = 0.05 about 4% of draws lie past the last cut. A
// table-backed sampler must also leave its stream where the closed form
// leaves it.
func TestGeometricTableMatchesClosedForm(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, p := range []float64{0.35, 0.5, 0.05, 0.9, 0.999} {
		d, err := NewGeometric(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.cut) == 0 || len(d.cut) > geoMaxCuts {
			t.Fatalf("p=%g: %d cuts", p, len(d.cut))
		}
		for j, c := range d.cut {
			if j > 0 && c < d.cut[j-1] {
				t.Fatalf("p=%g: cut %d = %d below cut %d = %d", p, j, c, j-1, d.cut[j-1])
			}
			lo := c - min(c, 1<<14)
			hi := min(c+1<<14, 1<<53-1)
			for x := lo; x <= hi; x++ {
				if got, want := d.Sample(drawOf(x)), closedGeometric(p, x); got != want {
					t.Fatalf("p=%g x=%d (cut %d at %d): table %d, closed form %d", p, x, j, c, got, want)
				}
			}
		}
		a, c := New(23), New(23)
		for i := 0; i < draws; i++ {
			want := closedGeometric(p, c.Uint64()<<11>>11)
			if got := d.Sample(a); got != want {
				t.Fatalf("p=%g draw %d: table %d, closed form %d", p, i, got, want)
			}
		}
		if a.Uint64() != c.Uint64() {
			t.Fatalf("p=%g: streams diverged after the draws", p)
		}
	}
}

// FuzzGeometricTable requires the table to return the closed form's value
// for any p in (0, 1] and any 53-bit draw, and for the draws at, just past
// and a window below the cut at or above it.
func FuzzGeometricTable(f *testing.F) {
	f.Add(0.35, uint64(0))
	f.Add(0.05, uint64(1<<53-1))
	f.Add(0.999, uint64(1<<52))
	f.Add(1e-300, uint64(12345))
	f.Add(1-1e-16, uint64(1<<53-2))
	f.Fuzz(func(t *testing.T, p float64, x uint64) {
		d, err := NewGeometric(p)
		if err != nil {
			return
		}
		x &= 1<<53 - 1
		near := []uint64{x}
		if j, _ := slices.BinarySearch(d.cut, x); j < len(d.cut) {
			near = append(near, d.cut[j], d.cut[j]+1, d.cut[j]-min(d.cut[j], geoWindow))
		}
		for _, y := range near {
			if y >= 1<<53 {
				continue
			}
			if got, want := d.Sample(drawOf(y)), closedGeometric(p, y); got != want {
				t.Fatalf("p=%g x=%d: table %d, closed form %d", p, y, got, want)
			}
		}
	})
}

func TestNewGeometricErrors(t *testing.T) {
	for _, p := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := NewGeometric(p); err == nil {
			t.Errorf("NewGeometric(%g) accepted", p)
		}
	}
}

func TestLogUniformIntBounds(t *testing.T) {
	g := New(3)
	lo, hi := 2, 5000
	for i := 0; i < 5000; i++ {
		v := g.LogUniformInt(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("LogUniformInt out of [%d,%d]: %d", lo, hi, v)
		}
	}
}

func TestLogUniformIntSkew(t *testing.T) {
	// Log-uniform should place many more draws below the arithmetic
	// midpoint than a uniform distribution would.
	g := New(9)
	lo, hi, n := 0, 10000, 20000
	below := 0
	for i := 0; i < n; i++ {
		if g.LogUniformInt(lo, hi) < (lo+hi)/2 {
			below++
		}
	}
	if frac := float64(below) / float64(n); frac < 0.75 {
		t.Fatalf("log-uniform not skewed: only %.2f below midpoint", frac)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := New(4)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 3}, {10, 10}, {1000, 5}, {100, 90}} {
		got := g.SampleWithoutReplacement(tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("n=%d k=%d: got %d values", tc.n, tc.k, len(got))
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("n=%d k=%d: value %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("n=%d k=%d: duplicate value %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementCoversAll(t *testing.T) {
	got := New(8).SampleWithoutReplacement(6, 6)
	seen := make(map[int]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Fatalf("full draw missed values: %v", got)
	}
}

func TestPowerLawBoundsAndShape(t *testing.T) {
	pl, err := NewPowerLaw(1, 100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	g := New(12)
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		v := pl.Sample(g)
		if v < 1 || v > 100 {
			t.Fatalf("power law out of range: %d", v)
		}
		counts[v]++
	}
	// P(1) / P(2) should be about 2^2.5 ~ 5.66.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 4.5 || ratio > 7.0 {
		t.Fatalf("P(1)/P(2) = %.2f, want ~5.66", ratio)
	}
}

func TestPowerLawMean(t *testing.T) {
	pl, err := NewPowerLaw(1, 50, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	g := New(21)
	sum, n := 0, 200000
	for i := 0; i < n; i++ {
		sum += pl.Sample(g)
	}
	emp := float64(sum) / float64(n)
	if math.Abs(emp-pl.Mean()) > 0.05*pl.Mean() {
		t.Fatalf("empirical mean %.3f vs analytic %.3f", emp, pl.Mean())
	}
}

func TestPowerLawErrors(t *testing.T) {
	for _, tc := range []struct {
		min, max int
		alpha    float64
	}{{0, 10, 2}, {5, 4, 2}, {1, 10, 0}, {1, 10, -1}} {
		if _, err := NewPowerLaw(tc.min, tc.max, tc.alpha); err == nil {
			t.Errorf("NewPowerLaw(%d,%d,%g): expected error", tc.min, tc.max, tc.alpha)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	a, err := NewAlias(w)
	if err != nil {
		t.Fatal(err)
	}
	g := New(17)
	counts := make([]int, len(w))
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Sample(g)]++
	}
	for i, c := range counts {
		want := w[i] / 10 * n
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("category %d: got %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a, err := NewAlias([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	g := New(2)
	for i := 0; i < 100; i++ {
		if a.Sample(g) != 0 {
			t.Fatal("single-category alias must always return 0")
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	g := New(6)
	for i := 0; i < 50000; i++ {
		v := a.Sample(g)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight category %d", v)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("NewAlias(%v): expected error", w)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1.0)
	if len(w) != 5 {
		t.Fatalf("got %d weights", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatalf("Zipf weights not decreasing at %d: %v", i, w)
		}
	}
	if math.Abs(w[0]/w[1]-2) > 1e-12 {
		t.Fatalf("w0/w1 = %g, want 2", w[0]/w[1])
	}
}

// Property: SampleWithoutReplacement always returns k distinct in-range
// values, for arbitrary n, k.
func TestSampleWithoutReplacementProperty(t *testing.T) {
	f := func(seed uint64, n16, k16 uint16) bool {
		n := int(n16)%500 + 1
		k := int(k16) % (n + 1)
		got := New(seed).SampleWithoutReplacement(n, k)
		if len(got) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: alias sampling only ever returns indices with positive weight.
func TestAliasSupportProperty(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		positive := false
		for i, r := range raw {
			w[i] = float64(r % 8)
			if w[i] > 0 {
				positive = true
			}
		}
		if !positive {
			return true
		}
		a, err := NewAlias(w)
		if err != nil {
			return false
		}
		g := New(seed)
		for i := 0; i < 200; i++ {
			if w[a.Sample(g)] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPowerLawSample(b *testing.B) {
	pl, _ := NewPowerLaw(1, 1000, 2.3)
	g := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Sample(g)
	}
}

// BenchmarkGeometricSample is one link-strength draw at the generator's
// StrengthP, through the table and through the closed form alone (the
// sampler RNG.Geometric uses), PCG step included.
func BenchmarkGeometricSample(b *testing.B) {
	table, _ := NewGeometric(0.35)
	closed := &Geometric{p: table.p, logq: table.logq}
	for _, bc := range []struct {
		name string
		d    *Geometric
	}{{"table", table}, {"closed", closed}} {
		b.Run(bc.name, func(b *testing.B) {
			g := New(1)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += bc.d.Sample(g)
			}
			benchSink = sum
		})
	}
}

var benchSink int

func BenchmarkAliasSample(b *testing.B) {
	a, _ := NewAlias(ZipfWeights(1000, 1.1))
	g := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(g)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(33)
	for _, n := range []int{0, 1, 2, 17} {
		p := g.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	g := New(34)
	vals := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	g.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", vals)
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(35)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate %.3f", frac)
	}
	if g.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !g.Bool(1.1) {
		t.Fatal("Bool(>1) returned false")
	}
}
