// Package models implements the paper's task-level models over the ML
// substrate: the plan-pair classifier (§2.2/§4) with any base learner, the
// regressor baselines of §6.1 (operator-level, plan-level, pair-ratio), the
// optimizer baseline, the Hybrid DNN (§6.2.2), and the adaptive models of
// §4.3/§6.2.3 (Local, Uncertainty, Nearest Neighbor, Meta, transfer).
package models

import (
	"fmt"
	"sync"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/util"
)

// Comparator predicts the cost relation of a plan pair (P1, P2): whether
// P2 regresses, improves, or is comparable. This is the interface the index
// tuner consumes (§5).
type Comparator interface {
	Compare(p1, p2 *plan.Plan) expdata.Label
}

// PlanPair is one (P1, P2) pair for batched classification.
type PlanPair struct {
	P1, P2 *plan.Plan
}

// BatchComparator is an optional Comparator extension: classify many plan
// pairs in one call, letting the model run its batched inference path.
// Verdict i must equal Compare(pairs[i].P1, pairs[i].P2).
type BatchComparator interface {
	Comparator
	CompareBatch(pairs []PlanPair, out []expdata.Label) []expdata.Label
}

// CompareAll classifies pairs with cmp, using its batched path for two or
// more pairs when it has one and sequential Compare calls otherwise (a
// one-row batch costs more than Compare). out is reused when large enough.
func CompareAll(cmp Comparator, pairs []PlanPair, out []expdata.Label) []expdata.Label {
	if bc, ok := cmp.(BatchComparator); ok && len(pairs) > 1 {
		return bc.CompareBatch(pairs, out)
	}
	out = growLabels(out, len(pairs))
	for i, p := range pairs {
		out[i] = cmp.Compare(p.P1, p.P2)
	}
	return out
}

func growLabels(out []expdata.Label, n int) []expdata.Label {
	if cap(out) < n {
		return make([]expdata.Label, n)
	}
	return out[:n]
}

// Classifier is the paper's core contribution: a ternary classifier over
// featurized plan pairs, directly minimizing comparison errors.
type Classifier struct {
	Feat  *feat.Featurizer
	Model ml.Classifier
	// Alpha is the significance threshold the training labels use.
	Alpha float64

	trained bool
}

// NewClassifier wires a base learner to a featurizer at threshold alpha.
func NewClassifier(f *feat.Featurizer, m ml.Classifier, alpha float64) *Classifier {
	if alpha <= 0 {
		alpha = expdata.DefaultAlpha
	}
	return &Classifier{Feat: f, Model: m, Alpha: alpha}
}

// Vectorize converts pairs into a feature matrix and label vector.
func (c *Classifier) Vectorize(pairs []expdata.Pair) ([][]float64, []int) {
	X := make([][]float64, len(pairs))
	y := make([]int, len(pairs))
	for i, p := range pairs {
		X[i] = c.Feat.Pair(p.P1.Plan, p.P2.Plan)
		y[i] = int(p.Label(c.Alpha))
	}
	return X, y
}

// Train fits the base learner on labeled pairs.
func (c *Classifier) Train(pairs []expdata.Pair) error {
	if len(pairs) == 0 {
		return fmt.Errorf("models: no training pairs")
	}
	X, y := c.Vectorize(pairs)
	if err := c.Model.Fit(X, y, expdata.NumLabels); err != nil {
		return err
	}
	c.trained = true
	return nil
}

// TrainVectors fits the base learner on pre-featurized pair vectors (the
// telemetry training path: vectors come from learn.Compact).
func (c *Classifier) TrainVectors(X [][]float64, y []int) error {
	if len(X) == 0 {
		return fmt.Errorf("models: no training vectors")
	}
	if err := c.Model.Fit(X, y, expdata.NumLabels); err != nil {
		return err
	}
	c.trained = true
	return nil
}

// Trained reports whether Train has succeeded.
func (c *Classifier) Trained() bool { return c.trained }

// PredictProba returns class probabilities for a plan pair.
func (c *Classifier) PredictProba(p1, p2 *plan.Plan) []float64 {
	return c.Model.PredictProba(c.Feat.Pair(p1, p2))
}

// cmpScratch pools the per-Compare buffers: the pair feature vector and
// the class-probability vector. Compare sits on the tuner's gate hot path
// (one call per candidate probe), so it must not allocate per call.
type cmpScratch struct {
	pair  []float64
	proba []float64
}

var cmpPool = sync.Pool{New: func() any { return new(cmpScratch) }}

// Compare implements Comparator. Featurization and inference run through
// the allocation-free paths with pooled scratch; the verdict is identical
// to expdata.Label(ml.Predict(c.Model, c.Feat.Pair(p1, p2))).
func (c *Classifier) Compare(p1, p2 *plan.Plan) expdata.Label {
	s := cmpPool.Get().(*cmpScratch)
	s.pair = c.Feat.PairInto(p1, p2, s.pair)
	s.proba = ml.PredictProbaInto(c.Model, s.pair, s.proba)
	v := expdata.Label(util.ArgMax(s.proba))
	cmpPool.Put(s)
	return v
}

// batchScratch pools CompareBatch's feature matrix and probability rows.
type batchScratch struct {
	X [][]float64
	P [][]float64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// CompareBatch implements BatchComparator: all pairs are featurized into
// pooled rows and classified with one batched inference call.
func (c *Classifier) CompareBatch(pairs []PlanPair, out []expdata.Label) []expdata.Label {
	out = growLabels(out, len(pairs))
	s := batchPool.Get().(*batchScratch)
	s.X = ml.GrowRows(s.X, len(pairs))
	for i, p := range pairs {
		s.X[i] = c.Feat.PairInto(p.P1, p.P2, s.X[i])
	}
	s.P = ml.PredictProbaBatch(c.Model, s.X, s.P)
	for i := range pairs {
		out[i] = expdata.Label(util.ArgMax(s.P[i]))
	}
	batchPool.Put(s)
	return out
}

// EvaluateF1 scores a comparator on test pairs, returning the F1 of the
// given class (the paper reports the regression class, §7.1).
func EvaluateF1(c Comparator, pairs []expdata.Pair, alpha float64, class expdata.Label) float64 {
	conf := ml.NewConfusion(expdata.NumLabels)
	for _, p := range pairs {
		conf.Add(int(p.Label(alpha)), int(c.Compare(p.P1.Plan, p.P2.Plan)))
	}
	return conf.Metrics(int(class)).F1
}

// EvaluateVectors scores a classifier on pre-featurized pair vectors (the
// telemetry-side shadow-evaluation path: vectors come from compacted
// PlanRecords, never from plan objects). The vectors must follow the
// classifier's own featurization layout.
func EvaluateVectors(c *Classifier, X [][]float64, y []int) *ml.Confusion {
	conf := ml.NewConfusion(expdata.NumLabels)
	for i := range X {
		conf.Add(y[i], ml.Predict(c.Model, X[i]))
	}
	return conf
}

// OptimizerBaseline compares plans by the optimizer's estimated total cost
// with the same α thresholds — the state-of-the-art tuner behaviour.
type OptimizerBaseline struct {
	Alpha float64
}

// NewOptimizerBaseline returns the optimizer-estimate comparator.
func NewOptimizerBaseline(alpha float64) *OptimizerBaseline {
	if alpha <= 0 {
		alpha = expdata.DefaultAlpha
	}
	return &OptimizerBaseline{Alpha: alpha}
}

// Compare implements Comparator.
func (o *OptimizerBaseline) Compare(p1, p2 *plan.Plan) expdata.Label {
	return expdata.LabelOf(p1.EstTotalCost, p2.EstTotalCost, o.Alpha)
}
