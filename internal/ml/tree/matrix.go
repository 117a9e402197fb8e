package tree

import (
	"slices"
	"sync"
)

// Matrix is a training-ready, column-major view of a row-major sample
// matrix: one contiguous column per feature plus, per feature, the rows
// sorted once globally by value (ties broken by row id, a total order, so
// the layout is identical however it is produced). Tree fits that scan
// every feature at every node thread these presorted orders through the
// recursion by stable partitioning instead of re-sorting every candidate
// feature at every node, turning the per-node cost from O(d·n log n) into
// O(d·n). The global sorts are built lazily on first use: fits that
// subsample features (forests) sort only the sampled features' node
// segments and never touch them.
//
// A Matrix is immutable once built and safe for concurrent readers, so a
// forest builds it once and shares it across all trees. Values must be
// finite: NaNs have no total order and would make the presorted layout
// diverge from per-node sorting.
type Matrix struct {
	cols  [][]float64 // [feature][row]
	order [][]int32   // [feature]: row ids ascending by value, ties by row
	rows  int
	dims  int

	colSlab []float64
	ordSlab []int32
	ordOnce *sync.Once // guards the lazy per-feature sorts of order
}

// NewMatrix builds a fresh training view of X.
func NewMatrix(X [][]float64) *Matrix {
	m := &Matrix{}
	m.Reset(X)
	return m
}

// Rows returns the number of samples in the view.
func (m *Matrix) Rows() int { return m.rows }

// Reset rebuilds the view over X, reusing the previous slabs when they
// are large enough.
func (m *Matrix) Reset(X [][]float64) {
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	m.rows, m.dims = n, d
	need := n * d
	if cap(m.colSlab) < need {
		m.colSlab = make([]float64, need)
	}
	m.colSlab = m.colSlab[:need]
	if cap(m.ordSlab) < need {
		m.ordSlab = make([]int32, need)
	}
	m.ordSlab = m.ordSlab[:need]
	if cap(m.cols) < d {
		m.cols = make([][]float64, d)
		m.order = make([][]int32, d)
	}
	m.cols, m.order = m.cols[:d], m.order[:d]
	for f := 0; f < d; f++ {
		col := m.colSlab[f*n : (f+1)*n]
		for i, row := range X {
			col[i] = row[f]
		}
		m.cols[f], m.order[f] = col, m.ordSlab[f*n:(f+1)*n]
	}
	m.ordOnce = new(sync.Once)
}

// ensureOrders sorts each feature's rows by (value, row id) the first time
// a full-feature-scan fit needs them. The Once makes the lazy sort safe
// when parallel tree fits share the Matrix.
func (m *Matrix) ensureOrders() {
	m.ordOnce.Do(func() {
		for f := 0; f < m.dims; f++ {
			col, ord := m.cols[f], m.order[f]
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
		}
	})
}

var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// AcquireMatrix builds a view of X on pooled slabs. Callers that fit a
// single tree use this plus Release to keep steady-state fits
// allocation-free; long-lived shared views (forests) use NewMatrix.
func AcquireMatrix(X [][]float64) *Matrix {
	m := matrixPool.Get().(*Matrix)
	m.Reset(X)
	return m
}

// Release returns the Matrix's slabs to the pool. The Matrix must not be
// used afterwards.
func (m *Matrix) Release() { matrixPool.Put(m) }
