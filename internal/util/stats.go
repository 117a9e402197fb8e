package util

import (
	"math"
	"sort"
)

// Median returns the median of xs. It copies the input and returns 0 for an
// empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Clip bounds x to [lo, hi].
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MaxInt64 returns the larger of a and b.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MinInt64 returns the smaller of a and b.
func MinInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ArgMax returns the index of the largest element of xs (first on ties), or
// -1 for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// HarmonicMean returns the harmonic mean of a and b, or 0 when a+b == 0.
// It is the combination rule behind the F1 score.
func HarmonicMean(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// SafeDiv divides a by b, clipping the quotient symmetrically into
// [-clip, clip]. Division by zero maps to ±clip with the sign of the a/b
// limit (so a negative-zero denominator flips it), 0/0 maps to 0 — a "no
// change over nothing" feature, not an extreme — and any NaN (NaN inputs,
// or Inf/Inf) maps to 0 so feature vectors never carry NaN into training.
func SafeDiv(a, b, clip float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	if b == 0 {
		if a == 0 {
			return 0
		}
		if (a < 0) != math.Signbit(b) {
			return -clip
		}
		return clip
	}
	q := a / b
	if math.IsNaN(q) { // Inf/Inf
		return 0
	}
	return Clip(q, -clip, clip)
}
