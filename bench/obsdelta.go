package main

import (
	"math"

	"repro/internal/obs"
)

// obsDelta is the change in the daemon's process-global obs registry over
// one phase of a run. The daemon runs in-process with obs enabled, as
// `aimai serve` runs it, so its counters are read directly.
type obsDelta struct{ before, after obs.Snapshot }

func obsSince(before obs.Snapshot) obsDelta {
	return obsDelta{before: before, after: obs.TakeSnapshot()}
}

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// gauge is the gauge's value at the end of the phase.
func (d obsDelta) gauge(name string) float64 { return d.after.Gauges[name] }

// gaugeDelta is the gauge's change over the phase.
func (d obsDelta) gaugeDelta(name string) float64 {
	return d.after.Gauges[name] - d.before.Gauges[name]
}

func (d obsDelta) histCount(name string) float64 {
	return float64(d.after.Histograms[name].Count - d.before.Histograms[name].Count)
}

func (d obsDelta) histSum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

// histQuantile estimates the q-quantile of the observations made during the
// phase from the histogram's log2 buckets, interpolating linearly inside
// the bucket that holds the rank. Returns 0 with no observations.
func (d obsDelta) histQuantile(name string, q float64) float64 {
	counts := map[float64]int64{}
	for _, b := range d.after.Histograms[name].Buckets {
		counts[b.Lo] += b.Count
	}
	for _, b := range d.before.Histograms[name].Buckets {
		counts[b.Lo] -= b.Count
	}
	var los []float64
	var total int64
	for lo, n := range counts {
		if n > 0 {
			los = append(los, lo)
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	los = sortedCopy(los)
	rank := q * float64(total)
	var seen float64
	for _, lo := range los {
		n := float64(counts[lo])
		if seen+n >= rank {
			hi := 2 * lo
			if lo == 0 {
				hi = obs.BucketLowerBound(0)
			}
			return lo + (hi-lo)*(rank-seen)/n
		}
		seen += n
	}
	return los[len(los)-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
