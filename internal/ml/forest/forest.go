// Package forest implements Random Forests — the paper's best offline
// model family (§7.6) — as bagged CART ensembles with per-split feature
// subsampling, soft-vote class probabilities (the uncertainty source used
// by the adaptive models), and a regression variant.
package forest

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/obs"
	"repro/internal/util"
)

// Training metric handle (see DESIGN.md §7). Forests have no epochs; the
// counter tracks trees fitted, the span the whole Fit.
var mForestTrees = obs.C("train.forest.trees")

// Config controls forest training.
type Config struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds individual trees; 0 unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1, as the paper).
	MinLeaf int
	// ImpurityThreshold is the Gini early-stopping threshold (paper: 1e-6).
	ImpurityThreshold float64
	// MaxFeatures per split; 0 defaults to sqrt(d) for classification and
	// d/3 for regression.
	MaxFeatures int
	// Seed drives bootstrap and feature sampling.
	Seed int64
	// Workers bounds training parallelism; 0 uses GOMAXPROCS.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.ImpurityThreshold == 0 {
		c.ImpurityThreshold = 1e-6
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Classifier is a random-forest classifier.
type Classifier struct {
	cfg        Config
	trees      []*tree.Tree
	numClasses int
}

// NewClassifier returns an untrained forest.
func NewClassifier(cfg Config) *Classifier {
	return &Classifier{cfg: cfg.withDefaults()}
}

// Fit implements ml.Classifier.
func (f *Classifier) Fit(X [][]float64, y []int, numClasses int) error {
	if len(X) == 0 {
		return fmt.Errorf("forest: empty training set")
	}
	f.numClasses = numClasses
	d := len(X[0])
	maxFeat := f.cfg.MaxFeatures
	if maxFeat == 0 {
		maxFeat = int(math.Ceil(math.Sqrt(float64(d))))
	}
	f.trees = make([]*tree.Tree, f.cfg.Trees)
	rng := util.NewRNG(f.cfg.Seed)
	seeds := make([]int64, f.cfg.Trees)
	for i := range seeds {
		seeds[i] = rng.SplitInt(i).Seed()
	}
	sp := obs.StartSpan("train.forest")
	defer sp.End()
	// One column view shared by every tree: each feature is ranked once for
	// the whole ensemble, and every node scans integer ranks, not floats.
	m := tree.AcquireMatrix(X)
	defer m.Release()
	return ml.ParallelFor(f.cfg.Trees, f.cfg.Workers, func(i int) error {
		trng := util.NewRNG(seeds[i])
		idx := bootstrap(len(X), trng)
		t := tree.New(tree.Config{
			MaxDepth:          f.cfg.MaxDepth,
			MinLeaf:           f.cfg.MinLeaf,
			ImpurityThreshold: f.cfg.ImpurityThreshold,
			MaxFeatures:       maxFeat,
			Seed:              seeds[i] ^ 0x5f5f,
		})
		if err := t.FitClassifierMatrix(m, y, numClasses, idx); err != nil {
			return err
		}
		f.trees[i] = t
		mForestTrees.Inc()
		return nil
	})
}

// PredictProba implements ml.Classifier: the soft vote over trees.
func (f *Classifier) PredictProba(x []float64) []float64 {
	return f.PredictProbaInto(x, make([]float64, f.numClasses))
}

// PredictProbaInto implements ml.ProbaInto: each tree's stored leaf
// distribution is accumulated directly into out, so a warm buffer makes
// inference allocation-free. Bit-identical to the allocating path (same
// per-tree accumulation order, same final division).
func (f *Classifier) PredictProbaInto(x, out []float64) []float64 {
	out = ml.Grow(out, f.numClasses)
	for c := range out {
		out[c] = 0
	}
	for _, t := range f.trees {
		t.AccumProba(x, out)
	}
	for c := range out {
		out[c] /= float64(len(f.trees))
	}
	return out
}

// PredictProbaBatch implements ml.BatchProba with the tree-outer loop
// order: each tree is descended for every row before moving on, so a
// tree's nodes stay cache-hot across the whole batch. The per-row result
// is bit-identical to PredictProba (float addition is commutative and
// associative only per accumulator; each out[i][c] still receives the
// trees' contributions in tree order).
func (f *Classifier) PredictProbaBatch(X, out [][]float64) [][]float64 {
	out = ml.GrowRows(out, len(X))
	for i := range X {
		out[i] = ml.Grow(out[i], f.numClasses)
		for c := range out[i] {
			out[i][c] = 0
		}
	}
	for _, t := range f.trees {
		for i, x := range X {
			t.AccumProba(x, out[i])
		}
	}
	n := float64(len(f.trees))
	for i := range out {
		for c := range out[i] {
			out[i][c] /= n
		}
	}
	return out
}

// MaxFeature returns the largest feature index any tree splits on, or -1
// if every tree is a single leaf.
func (f *Classifier) MaxFeature() int {
	best := -1
	for _, t := range f.trees {
		if m := t.MaxFeature(); m > best {
			best = m
		}
	}
	return best
}

// Regressor is a random-forest regressor (mean of tree predictions).
type Regressor struct {
	cfg   Config
	trees []*tree.Tree
}

// NewRegressor returns an untrained forest regressor.
func NewRegressor(cfg Config) *Regressor {
	return &Regressor{cfg: cfg.withDefaults()}
}

// Fit implements ml.Regressor.
func (f *Regressor) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return fmt.Errorf("forest: empty training set")
	}
	d := len(X[0])
	maxFeat := f.cfg.MaxFeatures
	if maxFeat == 0 {
		maxFeat = d/3 + 1
	}
	f.trees = make([]*tree.Tree, f.cfg.Trees)
	rng := util.NewRNG(f.cfg.Seed)
	seeds := make([]int64, f.cfg.Trees)
	for i := range seeds {
		seeds[i] = rng.SplitInt(i).Seed()
	}
	m := tree.AcquireMatrix(X)
	defer m.Release()
	return ml.ParallelFor(f.cfg.Trees, f.cfg.Workers, func(i int) error {
		trng := util.NewRNG(seeds[i])
		idx := bootstrap(len(X), trng)
		t := tree.New(tree.Config{
			MaxDepth:          f.cfg.MaxDepth,
			MinLeaf:           f.cfg.MinLeaf,
			ImpurityThreshold: f.cfg.ImpurityThreshold,
			MaxFeatures:       maxFeat,
			Seed:              seeds[i] ^ 0x6f6f,
		})
		if err := t.FitRegressorMatrix(m, y, idx); err != nil {
			return err
		}
		f.trees[i] = t
		return nil
	})
}

// Predict implements ml.Regressor.
func (f *Regressor) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// bootstrap samples n indices with replacement.
func bootstrap(n int, rng *util.RNG) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
