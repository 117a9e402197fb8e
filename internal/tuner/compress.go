package tuner

import (
	"repro/internal/engine/query"
	"repro/internal/obs"
)

var (
	mCompressIn  = obs.C("tuner.compress.queries")
	mCompressOut = obs.C("tuner.compress.representatives")
)

// CompressWorkload dedups a workload by constant-stripped template
// (query.TemplateHash, the same grouping SplitQuery uses for train/test
// splits): all parameterizations of one template collapse into the
// first-seen representative, whose weight becomes the group's total weight
// (queries with weight <= 0 count as 1, matching weightedCost). Order is
// first-seen, so tuning a compressed workload visits templates in the same
// order as the full one and — on duplicate-heavy workloads — produces the
// same recommendation for a fraction of the what-if probes.
//
// The representatives are shallow copies: the input queries are never
// mutated, so callers can reuse them.
func CompressWorkload(qs []*query.Query) []*query.Query {
	byTemplate := make(map[uint64]int, len(qs))
	out := make([]*query.Query, 0, len(qs))
	for _, q := range qs {
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		h := q.TemplateHash()
		if i, ok := byTemplate[h]; ok {
			out[i].Weight += w
			continue
		}
		cp := *q
		cp.Weight = w
		byTemplate[h] = len(out)
		out = append(out, &cp)
	}
	mCompressIn.Add(int64(len(qs)))
	mCompressOut.Add(int64(len(out)))
	return out
}
