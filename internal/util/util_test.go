package util

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split("data")
	b := root.Split("noise")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Intn(100) == b.Intn(100) {
			same++
		}
	}
	if same > 50 { // expect ~10 collisions on uniform [0,100)
		t.Fatalf("split streams look correlated: %d/1000 equal draws", same)
	}
	// Reproducibility of the split itself.
	c := NewRNG(7).Split("data")
	d := NewRNG(7).Split("data")
	for i := 0; i < 10; i++ {
		if c.Intn(1000) != d.Intn(1000) {
			t.Fatal("same split name not reproducible")
		}
	}
}

func TestRNGInt64Range(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Int64Range(-5, 5)
		if v < -5 || v > 5 {
			t.Fatalf("out of range: %d", v)
		}
	}
	if g.Int64Range(3, 3) != 3 {
		t.Fatal("degenerate range should return lo")
	}
	if g.Int64Range(9, 2) != 9 {
		t.Fatal("inverted range should return lo")
	}
}

func TestRNGSampleWithoutReplacement(t *testing.T) {
	g := NewRNG(5)
	s := g.SampleWithoutReplacement(10, 4)
	if len(s) != 4 {
		t.Fatalf("want 4 samples, got %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 {
			t.Fatalf("sample out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample: %d", v)
		}
		seen[v] = true
	}
	all := g.SampleWithoutReplacement(5, 50)
	if len(all) != 5 {
		t.Fatalf("oversized k should return all n, got %d", len(all))
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(11)
	z := NewZipf(g, 1.2, 1000)
	counts := map[int64]int{}
	for i := 0; i < 20000; i++ {
		v := z.Next()
		if v < 1 || v > 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[100] {
		t.Fatalf("zipf not skewed: count(1)=%d count(100)=%d", counts[1], counts[100])
	}
	// Head mass check: the top value should carry a large share under s=1.2.
	if counts[1] < 1000 {
		t.Fatalf("zipf head too light: %d", counts[1])
	}
}

func TestZipfLargeDomain(t *testing.T) {
	g := NewRNG(13)
	z := NewZipf(g, 1.1, 1<<20)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 1 || v > 1<<20 {
			t.Fatalf("large-domain zipf out of range: %d", v)
		}
	}
}

func TestMedianPercentile(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd: %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even: %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("median empty: %v", m)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if p := Percentile(xs, 0); p != 10 {
		t.Fatalf("p0: %v", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Fatalf("p100: %v", p)
	}
	if p := Percentile(xs, 50); p != 30 {
		t.Fatalf("p50: %v", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Fatalf("p25: %v", p)
	}
}

func TestPercentileWithinBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return Percentile(xs, p) == 0
		}
		pp := math.Mod(math.Abs(p), 100)
		v := Percentile(xs, pp)
		c := append([]float64(nil), xs...)
		sort.Float64s(c)
		return v >= c[0] && v <= c[len(c)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean: %v", m)
	}
}

func TestClipHelpers(t *testing.T) {
	if Clip(5, 0, 3) != 3 || Clip(-1, 0, 3) != 0 || Clip(2, 0, 3) != 2 {
		t.Fatal("Clip wrong")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgMax([]float64{5, 5, 5}) != 0 {
		t.Fatal("argmax tie should pick first")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("argmax empty should be -1")
	}
}

func TestHarmonicMean(t *testing.T) {
	if HarmonicMean(0, 0) != 0 {
		t.Fatal("harmonic mean of zeros")
	}
	if h := HarmonicMean(1, 1); h != 1 {
		t.Fatalf("harmonic mean of ones: %v", h)
	}
	if h := HarmonicMean(0.5, 1); math.Abs(h-2.0/3) > 1e-12 {
		t.Fatalf("harmonic mean: %v", h)
	}
}

func TestSafeDiv(t *testing.T) {
	if SafeDiv(1, 0, 100) != 100 {
		t.Fatal("div by zero positive")
	}
	if SafeDiv(-1, 0, 100) != -100 {
		t.Fatal("div by zero negative")
	}
	if SafeDiv(0, 0, 100) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if SafeDiv(10, 2, 100) != 5 {
		t.Fatal("plain division")
	}
	if SafeDiv(1e9, 1, 100) != 100 {
		t.Fatal("clip large ratio")
	}
}

func TestMinMaxInt64(t *testing.T) {
	if MaxInt64(2, 3) != 3 || MinInt64(2, 3) != 2 {
		t.Fatal("min/max wrong")
	}
}

// TestSafeDivEdgeCases pins the contract on the inputs featurization can
// produce: NaN never escapes, 0/0 is 0 (not a clip), the b == 0 limit is
// sign-correct including negative zero, and clipping is symmetric. The NaN
// and negative-zero cases fail on the pre-fix SafeDiv, which clipped the
// raw quotient and keyed the zero-denominator sign off a alone.
func TestSafeDivEdgeCases(t *testing.T) {
	const clip = 1e4
	inf := math.Inf(1)
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, 0}, // both zero: no signal, not an extreme
		{0, math.Copysign(0, -1), 0},
		{1, 0, clip}, // limits of a/b as b -> 0
		{-1, 0, -clip},
		{1, math.Copysign(0, -1), -clip}, // b -> 0 from below
		{-1, math.Copysign(0, -1), clip},
		{inf, 0, clip},
		{-inf, 0, -clip},
		{inf, 2, clip}, // Inf/finite clips
		{-inf, 2, -clip},
		{3, inf, 0},   // finite/Inf underflows to 0
		{inf, inf, 0}, // NaN quotient maps to 0
		{-inf, inf, 0},
		{math.NaN(), 1, 0}, // NaN inputs map to 0
		{1, math.NaN(), 0},
		{math.NaN(), math.NaN(), 0},
		{2e9, 1, clip}, // overflow clips high
		{-2e9, 1, -clip},
		{10, 2, 5}, // plain division untouched
		{-10, 2, -5},
	}
	for _, c := range cases {
		got := SafeDiv(c.a, c.b, clip)
		if math.IsNaN(got) || got != c.want {
			t.Errorf("SafeDiv(%v, %v, %v) = %v, want %v", c.a, c.b, clip, got, c.want)
		}
	}
}

// TestSafeDivProperties quick-checks the invariants over arbitrary floats:
// the result is always finite, within ±clip, and antisymmetric in a.
func TestSafeDivProperties(t *testing.T) {
	const clip = 1e4
	f := func(a, b float64) bool {
		got := SafeDiv(a, b, clip)
		if math.IsNaN(got) || got < -clip || got > clip {
			return false
		}
		// Antisymmetry: negating a negates the result (0 stays 0). NaN
		// inputs are exempt (-NaN is still NaN -> 0 = -0 works out).
		return SafeDiv(-a, b, clip) == -got || (got == 0 && SafeDiv(-a, b, clip) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
