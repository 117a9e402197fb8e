package tree

import (
	"slices"
	"sync"
)

// Matrix is a training-ready, column-major view of a row-major sample
// matrix: one contiguous column per feature plus two lazily built indexes
// over it, one per layout of the induction engine (fit.go).
//
//   - Orders, for fits that scan every feature at every node: per feature,
//     the rows sorted once globally by value (ties broken by row id, a
//     total order, so the layout is identical however it is produced).
//     Those fits thread the orders through the recursion by stable
//     partitioning instead of re-sorting every feature at every node,
//     turning the per-node cost from O(d·n log n) into O(d·n).
//   - Ranks, for classification fits that subsample features (forests):
//     per feature, the distinct values in ascending order and, per row,
//     the index of its value among them. A node then finds a feature's
//     splits from class counts per rank, without comparing floats.
//
// Each index is built on first use by the fits that need it, so a forest
// never sorts whole columns by row and a single full-scan tree never
// ranks them. A Matrix is immutable once built and safe for concurrent
// readers, so a forest builds it once and shares it across all trees.
// Values must be finite: NaNs have no total order and would make both
// indexes diverge from per-node sorting.
type Matrix struct {
	cols  [][]float64 // [feature][row]
	order [][]int32   // [feature]: row ids ascending by value, ties by row
	rank  [][]uint32  // [feature][row]: index of the row's value in vals
	vals  [][]float64 // [feature]: distinct values, ascending
	rows  int
	dims  int

	colSlab  []float64
	ordSlab  []int32
	rankSlab []uint32
	valSlab  []float64
	ordOnce  *sync.Once // guards the lazy build of order
	rankOnce *sync.Once // guards the lazy build of rank and vals
}

// Reset rebuilds the view over X, reusing the previous slabs when they
// are large enough. The order and rank indexes of the previous data are
// dropped; the first fit that needs one rebuilds it.
func (m *Matrix) Reset(X [][]float64) {
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	m.rows, m.dims = n, d
	m.colSlab = growF64(m.colSlab, n*d)
	if cap(m.cols) < d {
		m.cols = make([][]float64, d)
		m.order = make([][]int32, d)
		m.rank = make([][]uint32, d)
		m.vals = make([][]float64, d)
	}
	m.cols, m.order, m.rank, m.vals = m.cols[:d], m.order[:d], m.rank[:d], m.vals[:d]
	for f := 0; f < d; f++ {
		col := m.colSlab[f*n : (f+1)*n]
		for i, row := range X {
			col[i] = row[f]
		}
		m.cols[f] = col
	}
	m.ordOnce, m.rankOnce = new(sync.Once), new(sync.Once)
}

// ensureOrders sorts each feature's rows by (value, row id) the first time
// a full-feature-scan fit needs them. The Once makes the lazy sort safe
// when parallel tree fits share the Matrix.
func (m *Matrix) ensureOrders() {
	m.ordOnce.Do(func() {
		n := m.rows
		m.ordSlab = growI32(m.ordSlab, n*m.dims)
		for f := 0; f < m.dims; f++ {
			col, ord := m.cols[f], m.ordSlab[f*n:(f+1)*n]
			for i := range ord {
				ord[i] = int32(i)
			}
			slices.SortFunc(ord, func(a, b int32) int {
				va, vb := col[a], col[b]
				switch {
				case va < vb:
					return -1
				case va > vb:
					return 1
				}
				return int(a) - int(b)
			})
			m.order[f] = ord
		}
	})
}

// ensureRanks codes each feature's values as dense ranks the first time a
// feature-subsampled classification fit needs them. Values that compare
// equal share a rank, so −0 and +0 do. A column that is constant over the
// whole Matrix is detected in one pass and gets the single rank 0.
func (m *Matrix) ensureRanks() {
	m.rankOnce.Do(func() {
		n := m.rows
		m.rankSlab = growU32(m.rankSlab, n*m.dims)
		// Each feature's distinct values are appended to valSlab: the
		// column is copied to its end, sorted and compacted in place.
		vals := m.valSlab[:0]
		for f := 0; f < m.dims; f++ {
			col, rk := m.cols[f], m.rankSlab[f*n:(f+1)*n]
			m.rank[f] = rk
			base := len(vals)
			if constant(col) {
				clear(rk)
				vals = append(vals, col[0])
			} else {
				vals = append(vals, col...)
				slices.Sort(vals[base:])
				distinct := slices.Compact(vals[base:])
				for i, v := range col {
					r, _ := slices.BinarySearch(distinct, v)
					rk[i] = uint32(r)
				}
				vals = vals[:base+len(distinct)]
			}
			m.vals[f] = vals[base:]
		}
		// An append may have moved the slab: point every feature's values
		// into the final one, keeping their lengths.
		m.valSlab = vals
		start := 0
		for f, v := range m.vals {
			end := start + len(v)
			m.vals[f] = vals[start:end:end]
			start = end
		}
	})
}

// constant reports whether every value of col compares equal to the first.
func constant(col []float64) bool {
	for _, v := range col[1:] {
		if v != col[0] {
			return false
		}
	}
	return true
}

var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// AcquireMatrix builds a view of X on pooled slabs. Every fit builds its
// view here: a single-tree fit releases it on return, and forests and
// boosters share one across their trees and release it once all are
// fitted, so steady-state fits reuse the slabs instead of allocating them.
func AcquireMatrix(X [][]float64) *Matrix {
	m := matrixPool.Get().(*Matrix)
	m.Reset(X)
	return m
}

// Release returns the Matrix's slabs to the pool. The Matrix must not be
// used afterwards.
func (m *Matrix) Release() { matrixPool.Put(m) }
