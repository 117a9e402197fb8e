// Package stats implements the statistics layer the optimizer estimates
// cardinalities from: reservoir samples, equi-depth histograms, and
// distinct-value estimation.
//
// The estimators deliberately embody the textbook assumptions of production
// optimizers — uniformity within histogram buckets, independence across
// predicates, and containment for joins. Workload data generated with Zipf
// skew and inter-column correlation violates these assumptions, which
// produces the systematic estimation errors at the heart of the paper.
package stats

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/engine/data"
	"repro/internal/util"
)

// DefaultBuckets is the number of histogram buckets built per column.
const DefaultBuckets = 32

// DefaultSampleSize is the reservoir size used when building statistics.
const DefaultSampleSize = 1024

// Histogram is an equi-depth histogram over int64 values. Bucket i covers
// (bounds[i], bounds[i+1]] except bucket 0 which covers [bounds[0],
// bounds[1]]. Counts and distinct counts are scaled to table cardinality.
type Histogram struct {
	bounds   []int64   // len = buckets+1
	counts   []float64 // rows per bucket, scaled
	distinct []float64 // distinct values per bucket, scaled
	total    float64   // total rows
}

// buildHistogram constructs an equi-depth histogram from a sorted sample,
// scaling sample counts up to rowCount.
func buildHistogram(sorted []int64, rowCount int64, buckets int) *Histogram {
	n := len(sorted)
	if n == 0 || rowCount == 0 {
		return &Histogram{total: 0}
	}
	if buckets > n {
		buckets = n
	}
	scale := float64(rowCount) / float64(n)
	h := &Histogram{total: float64(rowCount)}
	per := n / buckets
	extra := n % buckets
	idx := 0
	h.bounds = append(h.bounds, sorted[0])
	for b := 0; b < buckets; b++ {
		size := per
		if b < extra {
			size++
		}
		end := idx + size
		if b == buckets-1 || end > n {
			end = n
		}
		// Extend the bucket so equal values never straddle a boundary.
		for end < n && sorted[end] == sorted[end-1] {
			end++
		}
		if end <= idx {
			continue
		}
		seg := sorted[idx:end]
		d := 1
		for i := 1; i < len(seg); i++ {
			if seg[i] != seg[i-1] {
				d++
			}
		}
		h.bounds = append(h.bounds, seg[len(seg)-1])
		h.counts = append(h.counts, float64(len(seg))*scale)
		h.distinct = append(h.distinct, float64(d))
		idx = end
		if idx >= n {
			break
		}
	}
	return h
}

// Min returns the smallest sampled value.
func (h *Histogram) Min() int64 {
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[0]
}

// Max returns the largest sampled value.
func (h *Histogram) Max() int64 {
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// EstimateRange estimates the number of rows with lo <= v <= hi using
// uniform interpolation within buckets.
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if h.total == 0 || len(h.counts) == 0 || lo > hi {
		return 0
	}
	var est float64
	for b := range h.counts {
		bLo, bHi := h.bounds[b], h.bounds[b+1]
		if b > 0 {
			bLo++ // bucket covers (bounds[b], bounds[b+1]]
		}
		if hi < bLo || lo > bHi {
			continue
		}
		oLo := util.MaxInt64(lo, bLo)
		oHi := util.MinInt64(hi, bHi)
		width := float64(bHi-bLo) + 1
		frac := (float64(oHi-oLo) + 1) / width
		if frac > 1 {
			frac = 1
		}
		est += h.counts[b] * frac
	}
	if est > h.total {
		est = h.total
	}
	return est
}

// EstimateEq estimates the number of rows with v == x assuming uniform
// spread over the bucket's distinct values.
func (h *Histogram) EstimateEq(x int64) float64 {
	if h.total == 0 || len(h.counts) == 0 {
		return 0
	}
	if x < h.Min() || x > h.Max() {
		return 0
	}
	for b := range h.counts {
		bLo, bHi := h.bounds[b], h.bounds[b+1]
		if b > 0 {
			bLo++
		}
		if x >= bLo && x <= bHi {
			d := h.distinct[b]
			if d < 1 {
				d = 1
			}
			return h.counts[b] / d
		}
	}
	return 0
}

// ColumnStats are the per-column statistics the optimizer uses.
type ColumnStats struct {
	Table    string
	Column   string
	RowCount int64
	Distinct float64 // estimated number of distinct values
	Hist     *Histogram
}

// BuildColumnStats samples the column (reservoir sampling of sampleSize
// rows) and builds the histogram plus a distinct-value estimate.
func BuildColumnStats(table, column string, vals []int64, rng *util.RNG, sampleSize, buckets int) *ColumnStats {
	n := len(vals)
	cs := &ColumnStats{Table: table, Column: column, RowCount: int64(n)}
	if n == 0 {
		cs.Hist = &Histogram{}
		return cs
	}
	sample := Reservoir(vals, rng, sampleSize)
	slices.Sort(sample)
	cs.Hist = buildHistogram(sample, int64(n), buckets)
	cs.Distinct = estimateDistinct(sample, n)
	return cs
}

// Reservoir draws a uniform sample of up to k values (Vitter's algorithm R).
func Reservoir(vals []int64, rng *util.RNG, k int) []int64 {
	if len(vals) <= k {
		return append([]int64(nil), vals...)
	}
	out := append([]int64(nil), vals[:k]...)
	for i := k; i < len(vals); i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = vals[i]
		}
	}
	return out
}

// estimateDistinct estimates the table-level number of distinct values from
// a sorted sample of a table with rowCount rows, using the first-order
// jackknife estimator. Like real systems, it errs on skewed data.
func estimateDistinct(sorted []int64, rowCount int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	d := 1
	f1 := 0 // values appearing exactly once in the sample
	run := 1
	for i := 1; i < n; i++ {
		if sorted[i] != sorted[i-1] {
			if run == 1 {
				f1++
			}
			d++
			run = 1
		} else {
			run++
		}
	}
	if run == 1 {
		f1++
	}
	if n >= rowCount {
		return float64(d)
	}
	q := float64(n) / float64(rowCount)
	est := float64(d) / (1 - (1-q)*float64(f1)/float64(n))
	if est < float64(d) {
		est = float64(d)
	}
	if est > float64(rowCount) {
		est = float64(rowCount)
	}
	return est
}

// TableStats bundles statistics for every column of a table.
type TableStats struct {
	Table    string
	RowCount int64
	Columns  map[string]*ColumnStats
}

// DatabaseStats holds statistics for all tables of a database.
type DatabaseStats struct {
	Tables map[string]*TableStats
}

// BuildDatabaseStats samples every column of every table.
func BuildDatabaseStats(db *data.Database, rng *util.RNG, sampleSize, buckets int) *DatabaseStats {
	ds := &DatabaseStats{Tables: map[string]*TableStats{}}
	for _, name := range db.Schema.TableNames() {
		t := db.Table(name)
		if t == nil {
			continue
		}
		ts := &TableStats{Table: name, RowCount: int64(t.NumRows()), Columns: map[string]*ColumnStats{}}
		for _, col := range t.Meta.Columns {
			ts.Columns[col.Name] = BuildColumnStats(
				name, col.Name, t.Column(col.Name),
				rng.Split(fmt.Sprintf("stats:%s.%s", name, col.Name)),
				sampleSize, buckets)
		}
		ds.Tables[name] = ts
	}
	return ds
}

// Column returns stats for table.column, or nil when unknown.
func (ds *DatabaseStats) Column(table, column string) *ColumnStats {
	ts := ds.Tables[table]
	if ts == nil {
		return nil
	}
	return ts.Columns[column]
}

// RowCount returns the row count of a table, or 0 when unknown.
func (ds *DatabaseStats) RowCount(table string) int64 {
	ts := ds.Tables[table]
	if ts == nil {
		return 0
	}
	return ts.RowCount
}

// SelectivityEq estimates the selectivity of column = x.
func (ds *DatabaseStats) SelectivityEq(table, column string, x int64) float64 {
	cs := ds.Column(table, column)
	if cs == nil || cs.RowCount == 0 {
		return 0.1 // magic default, as in real optimizers without stats
	}
	return util.Clip(cs.Hist.EstimateEq(x)/float64(cs.RowCount), 0, 1)
}

// SelectivityRange estimates the selectivity of lo <= column <= hi.
func (ds *DatabaseStats) SelectivityRange(table, column string, lo, hi int64) float64 {
	cs := ds.Column(table, column)
	if cs == nil || cs.RowCount == 0 {
		return 0.3
	}
	return util.Clip(cs.Hist.EstimateRange(lo, hi)/float64(cs.RowCount), 0, 1)
}

// JoinSelectivity estimates the selectivity of an equijoin between
// left.lcol and right.rcol under the containment assumption:
// sel = 1 / max(ndv(left), ndv(right)).
func (ds *DatabaseStats) JoinSelectivity(lt, lc, rt, rc string) float64 {
	l := ds.Column(lt, lc)
	r := ds.Column(rt, rc)
	var ndv float64 = 1000 // default when stats are missing
	if l != nil && r != nil {
		ndv = math.Max(l.Distinct, r.Distinct)
	} else if l != nil {
		ndv = l.Distinct
	} else if r != nil {
		ndv = r.Distinct
	}
	if ndv < 1 {
		ndv = 1
	}
	return 1 / ndv
}
