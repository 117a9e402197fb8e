// Package util provides small shared helpers: deterministic random-number
// streams, statistics utilities, and numeric helpers used across the engine,
// the ML substrate, and the experiment harness.
//
// All randomness in the repository flows through named, seeded streams so
// that every experiment is exactly reproducible from a single root seed.
package util

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random-number generator. It wraps math/rand with
// helpers for named sub-stream derivation so that independent components
// (data generation, sampling, model training, measurement noise) draw from
// decorrelated streams derived from one root seed.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed this generator was constructed with.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent child stream identified by name. Two children
// of the same parent with different names produce decorrelated sequences;
// the same (seed, name) always yields the same stream.
func (g *RNG) Split(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return NewRNG(g.seed ^ int64(h.Sum64()) ^ 0x5deece66d)
}

// SplitInt derives an independent child stream identified by an integer,
// useful inside loops (for example per-tree or per-repeat streams).
func (g *RNG) SplitInt(i int) *RNG {
	return NewRNG(g.seed ^ (int64(i)+1)*0x7f4a7c159e3779b9)
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Int64Range returns a uniform int64 in [lo, hi] inclusive.
func (g *RNG) Int64Range(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Int63n(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard-normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// LogNormal returns a multiplicative noise factor exp(sigma * N(0,1)).
func (g *RNG) LogNormal(sigma float64) float64 {
	return math.Exp(sigma * g.r.NormFloat64())
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles a slice of ints in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// SampleWithoutReplacement returns k distinct indices from [0, n). If k >= n
// it returns all n indices in random order.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	p := g.Perm(n)
	if k >= n {
		return p
	}
	return p[:k]
}

// Zipf draws values in [1, n] following a Zipf distribution with exponent s.
// It uses a precomputed CDF for exactness on small domains and rejection
// sampling beyond the cutoff for large domains.
type Zipf struct {
	n   int64
	s   float64
	cdf []float64 // present when n is small enough to tabulate
	rng *RNG
}

// NewZipf creates a Zipf sampler over [1, n] with skew s (s = 0 is uniform).
func NewZipf(rng *RNG, s float64, n int64) *Zipf {
	z := &Zipf{n: n, s: s, rng: rng}
	const tabulated = 1 << 16
	if n <= tabulated {
		cdf := make([]float64, n)
		var sum float64
		for i := int64(1); i <= n; i++ {
			sum += 1.0 / math.Pow(float64(i), s)
			cdf[i-1] = sum
		}
		for i := range cdf {
			cdf[i] /= sum
		}
		z.cdf = cdf
	}
	return z
}

// Next draws the next Zipf-distributed value in [1, n].
func (z *Zipf) Next() int64 {
	if z.cdf != nil {
		u := z.rng.Float64()
		lo, hi := 0, len(z.cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo) + 1
	}
	// Inverse-CDF approximation for large n using the continuous Zipf
	// (bounded Pareto) distribution; adequate for data generation.
	u := z.rng.Float64()
	if z.s == 1 {
		return int64(math.Exp(u*math.Log(float64(z.n)))) | 1
	}
	oneMinusS := 1 - z.s
	hi := math.Pow(float64(z.n), oneMinusS)
	v := math.Pow(u*(hi-1)+1, 1/oneMinusS)
	k := int64(v)
	if k < 1 {
		k = 1
	}
	if k > z.n {
		k = z.n
	}
	return k
}
