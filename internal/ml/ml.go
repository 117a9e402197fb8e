// Package ml is the from-scratch machine-learning substrate: model
// interfaces, evaluation metrics (precision/recall/F1), cross-validation
// helpers, and shared math. Sub-packages implement the model families the
// paper studies: CART trees, random forests, gradient-boosted trees (plus a
// histogram/leaf-wise LightGBM-style variant), logistic regression, deep
// neural networks, and k-nearest neighbours.
package ml

import (
	"fmt"
	"math"

	"repro/internal/util"
)

// Classifier is a multiclass classifier. Implementations must return
// probability vectors of length numClasses that sum to ~1.
type Classifier interface {
	// Fit trains on feature matrix X and labels y in [0, numClasses).
	Fit(X [][]float64, y []int, numClasses int) error
	// PredictProba returns class probabilities for one input.
	PredictProba(x []float64) []float64
}

// Regressor is a scalar regressor.
type Regressor interface {
	Fit(X [][]float64, y []float64) error
	Predict(x []float64) float64
}

// ProbaInto is an optional Classifier extension: an inference path that
// writes the class probabilities into a caller-provided buffer instead of
// allocating one per call. Implementations must return out (grown if its
// capacity was insufficient) and must produce bit-identical probabilities
// to PredictProba.
type ProbaInto interface {
	PredictProbaInto(x, out []float64) []float64
}

// BatchProba is an optional Classifier extension: batched inference over
// many inputs at once, letting implementations choose cache-friendlier
// loop orders (e.g. a forest iterating trees in the outer loop). out[i]
// receives row i's probabilities; rows are grown as needed and returned.
type BatchProba interface {
	PredictProbaBatch(X [][]float64, out [][]float64) [][]float64
}

// Grow returns buf with length n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite.
func Grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// GrowRows returns rows with length n, preserving the capacity of both the
// outer slice and each retained row buffer.
func GrowRows(rows [][]float64, n int) [][]float64 {
	if cap(rows) < n {
		grown := make([][]float64, n)
		copy(grown, rows)
		return grown
	}
	return rows[:n]
}

// PredictProbaInto predicts into out via the classifier's allocation-free
// path when it has one, falling back to copying PredictProba's result.
func PredictProbaInto(c Classifier, x, out []float64) []float64 {
	if pi, ok := c.(ProbaInto); ok {
		return pi.PredictProbaInto(x, out)
	}
	p := c.PredictProba(x)
	out = Grow(out, len(p))
	copy(out, p)
	return out
}

// PredictProbaBatch predicts every row of X into out, using the
// classifier's batched path when it has one.
func PredictProbaBatch(c Classifier, X [][]float64, out [][]float64) [][]float64 {
	if bp, ok := c.(BatchProba); ok {
		return bp.PredictProbaBatch(X, out)
	}
	out = GrowRows(out, len(X))
	for i, x := range X {
		out[i] = PredictProbaInto(c, x, out[i])
	}
	return out
}

// Predict returns the argmax class of a classifier's probabilities.
func Predict(c Classifier, x []float64) int {
	return util.ArgMax(c.PredictProba(x))
}

// PredictAll classifies every row of X.
func PredictAll(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = Predict(c, x)
	}
	return out
}

// Uncertainty returns 1 − max probability, the paper's RF uncertainty
// measure for adaptive model selection (§7.8).
func Uncertainty(proba []float64) float64 {
	if len(proba) == 0 {
		return 1
	}
	return 1 - proba[util.ArgMax(proba)]
}

// Confusion is a confusion matrix: M[true][predicted].
type Confusion struct {
	M [][]int
	N int
}

// NewConfusion creates a k-class confusion matrix.
func NewConfusion(k int) *Confusion {
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	return &Confusion{M: m}
}

// Add records one (true, predicted) observation.
func (c *Confusion) Add(yTrue, yPred int) {
	c.M[yTrue][yPred]++
	c.N++
}

// ConfusionOf tallies predictions against truth.
func ConfusionOf(yTrue, yPred []int, k int) *Confusion {
	c := NewConfusion(k)
	for i := range yTrue {
		c.Add(yTrue[i], yPred[i])
	}
	return c
}

// ClassMetrics are one class's precision, recall, and F1 (§7.1).
type ClassMetrics struct {
	Precision float64
	Recall    float64
	F1        float64
	Support   int
}

// Metrics computes the one-vs-rest metrics of a class.
func (c *Confusion) Metrics(class int) ClassMetrics {
	var tp, fp, fn int
	for t := range c.M {
		for p := range c.M[t] {
			switch {
			case t == class && p == class:
				tp += c.M[t][p]
			case t != class && p == class:
				fp += c.M[t][p]
			case t == class && p != class:
				fn += c.M[t][p]
			}
		}
	}
	m := ClassMetrics{Support: tp + fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	m.F1 = util.HarmonicMean(m.Precision, m.Recall)
	return m
}

// Accuracy returns the overall accuracy.
func (c *Confusion) Accuracy() float64 {
	if c.N == 0 {
		return 0
	}
	correct := 0
	for i := range c.M {
		correct += c.M[i][i]
	}
	return float64(correct) / float64(c.N)
}

// String renders the matrix.
func (c *Confusion) String() string {
	s := ""
	for i := range c.M {
		s += fmt.Sprintln(c.M[i])
	}
	return s
}

// F1OfClass evaluates a trained classifier on a test set and returns the F1
// score of one class — the paper's primary metric (regression class F1).
func F1OfClass(c Classifier, X [][]float64, y []int, k, class int) float64 {
	return ConfusionOf(y, PredictAll(c, X), k).Metrics(class).F1
}

// KFold yields k cross-validation folds as (trainIdx, testIdx) pairs.
func KFold(n, k int, rng *util.RNG) [][2][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	folds := make([][2][]int, 0, k)
	for f := 0; f < k; f++ {
		lo := n * f / k
		hi := n * (f + 1) / k
		test := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-(hi-lo))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds = append(folds, [2][]int{train, test})
	}
	return folds
}

// Subset selects rows of X and y by index.
func Subset(X [][]float64, y []int, idx []int) ([][]float64, []int) {
	sx := make([][]float64, len(idx))
	sy := make([]int, len(idx))
	for i, j := range idx {
		sx[i] = X[j]
		sy[i] = y[j]
	}
	return sx, sy
}

// Standardizer scales features to zero mean and unit variance; DNNs and
// logistic regression need it, trees do not.
type Standardizer struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer computes per-feature mean and standard deviation.
func FitStandardizer(X [][]float64) *Standardizer {
	if len(X) == 0 {
		return &Standardizer{}
	}
	d := len(X[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(X))
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(X)))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform standardizes one row (allocating a new slice).
func (s *Standardizer) Transform(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return x
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformInto standardizes one row into out. Unlike Transform it copies
// even for the no-op standardizer, so out never aliases x.
func (s *Standardizer) TransformInto(x, out []float64) []float64 {
	out = Grow(out, len(x))
	if len(s.Mean) == 0 {
		copy(out, x)
		return out
	}
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes a matrix.
func (s *Standardizer) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Softmax converts logits to probabilities in place-safe fashion.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	max := logits[util.ArgMax(logits)]
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SoftmaxInto converts logits to probabilities in out. out may alias
// logits (in-place softmax): the max is read first and every element is
// consumed before it is overwritten. Bit-identical to Softmax.
func SoftmaxInto(logits, out []float64) []float64 {
	out = Grow(out, len(logits))
	max := logits[util.ArgMax(logits)]
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// CosineDistance returns 1 − cosine similarity of two vectors.
func CosineDistance(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		if na == nb {
			return 0
		}
		return 1
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
}

// EuclideanDistance returns the L2 distance of two vectors.
func EuclideanDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
