package main

import (
	"fmt"
	"math"
	"sort"
)

var inf = math.Inf(1)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// slice. A failed operation is recorded as +Inf, so it sorts last and
// counts as missing every latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(q, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rank is the 1-based nearest rank of the q-quantile of n samples; the
// epsilon keeps float error in q*n (0.999*10000 = 9990.000000000002) from
// pushing the rank up by one.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailPercentiles are the candidates the percentile rule picks from.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile applies the percentile rule: the highest of
// tailPercentiles that leaves at least ten of n samples beyond it. ok is
// false when even the median has fewer than ten samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rank(p/100, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// median is the midpoint of xs, averaging the two middle values of an
// even-length sample (Python's statistics.median).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads printed here match the ones an external check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// tailNote describes a latency sample by the percentile rule: its size,
// median, and the highest percentile with at least ten samples beyond it.
func tailNote(ms []float64) string {
	s := sortedCopy(ms)
	p, ok := tailPercentile(len(s))
	if !ok || p == 50 {
		return fmt.Sprintf("(n=%d, p50=%.3fms, too few samples for a tail percentile)", len(s), quantile(s, 0.5))
	}
	return fmt.Sprintf("(n=%d, p50=%.3fms, p%g=%.3fms)", len(s), quantile(s, 0.5), p, quantile(s, p/100))
}
