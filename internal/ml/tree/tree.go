// Package tree implements CART decision trees: Gini-impurity
// classification trees and variance-reduction regression trees, with the
// regularization knobs the paper tunes (§7.4): minimum samples per leaf and
// an impurity early-stopping threshold, plus per-split feature subsampling
// for random forests.
//
// Training runs over a column-major Matrix: fits that scan every feature
// thread one global sort per feature through the recursion by stable
// partitioning, and feature-subsampled classification fits (forests) read
// per-feature value ranks — see fit.go. The split semantics are pinned
// bit-exact to the original per-node-sort trainer by ref_train_test.go.
package tree

import "fmt"

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// ImpurityThreshold stops splitting when a node's impurity (Gini for
	// classification, variance for regression) falls below it.
	ImpurityThreshold float64
	// MaxFeatures is the number of features sampled per split; 0 uses all.
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed int64
	// Parallelism bounds the per-split feature-scan workers engaged on
	// wide nodes (0 or 1 = serial). The winning split is reduced in
	// feature order, so any setting produces the identical tree.
	Parallelism int
}

func (c Config) minLeaf() int {
	if c.MinLeaf < 1 {
		return 1
	}
	return c.MinLeaf
}

// node is one tree node; leaves carry a class distribution or value.
type node struct {
	feature int
	thresh  float64
	left    *node
	right   *node
	// Leaf payload.
	proba []float64 // classification
	value float64   // regression
}

func (n *node) isLeaf() bool { return n.left == nil }

// Tree is a trained decision tree.
type Tree struct {
	cfg        Config
	root       *node
	numClasses int // 0 for regression trees
	nodes      int
}

// New creates an untrained tree with the given config.
func New(cfg Config) *Tree { return &Tree{cfg: cfg} }

// FitClassifier trains a Gini classification tree on rows idx of (X, y).
// idx == nil uses all rows.
func (t *Tree) FitClassifier(X [][]float64, y []int, numClasses int, idx []int) error {
	if len(X) == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	m := AcquireMatrix(X)
	defer m.Release()
	return t.FitClassifierMatrix(m, y, numClasses, idx)
}

// FitRegressor trains a variance-reduction regression tree.
func (t *Tree) FitRegressor(X [][]float64, y []float64, idx []int) error {
	if len(X) == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	m := AcquireMatrix(X)
	defer m.Release()
	return t.FitRegressorMatrix(m, y, idx)
}

// FitClassifierMatrix trains on the shared view m. idx selects
// samples by row, duplicates allowed (forests pass bootstrap multisets);
// nil uses every row once. Forests and boosters build m once and share it
// across trees.
func (t *Tree) FitClassifierMatrix(m *Matrix, y []int, numClasses int, idx []int) error {
	if m == nil || m.rows == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	if numClasses < 2 {
		return fmt.Errorf("tree: need at least 2 classes, got %d", numClasses)
	}
	t.numClasses = numClasses
	t.fitMatrix(m, y, nil, numClasses, idx)
	return nil
}

// FitRegressorMatrix is FitClassifierMatrix's regression counterpart.
func (t *Tree) FitRegressorMatrix(m *Matrix, y []float64, idx []int) error {
	if m == nil || m.rows == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	t.numClasses = 0
	t.fitMatrix(m, nil, y, 0, idx)
	return nil
}

// descend walks to the leaf for x.
func (t *Tree) descend(x []float64) *node {
	n := t.root
	for !n.isLeaf() {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// MaxFeature returns the largest feature index any split reads, or -1 for
// a leaf-only tree. Callers use it to check a deserialized tree against
// the dimensionality of the vectors it will score.
func (t *Tree) MaxFeature() int {
	best := -1
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil || n.isLeaf() {
			return
		}
		if n.feature > best {
			best = n.feature
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return best
}

// PredictProba returns the class distribution of x's leaf.
func (t *Tree) PredictProba(x []float64) []float64 {
	return t.descend(x).proba
}

// PredictProbaInto implements ml.ProbaInto: the leaf distribution is
// copied into out without touching the heap.
func (t *Tree) PredictProbaInto(x, out []float64) []float64 {
	p := t.descend(x).proba
	if cap(out) < len(p) {
		out = make([]float64, len(p))
	}
	out = out[:len(p)]
	copy(out, p)
	return out
}

// AccumProba adds x's leaf distribution into acc (length numClasses) —
// the forest's allocation-free accumulation path.
func (t *Tree) AccumProba(x, acc []float64) {
	for c, v := range t.descend(x).proba {
		acc[c] += v
	}
}

// Predict returns the regression value of x's leaf.
func (t *Tree) Predict(x []float64) float64 {
	return t.descend(x).value
}
