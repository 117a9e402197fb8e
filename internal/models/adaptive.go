package models

import (
	"fmt"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/util"
)

// Adaptive is a comparator that can cheaply absorb new execution data from
// the database being tuned (§4.3). Adapt is called on every tuner
// invocation with the locally collected pairs.
type Adaptive interface {
	Comparator
	Adapt(local []expdata.Pair) error
}

// Local is the simplest adaptation: a fresh model trained only on the local
// pairs, ignoring the offline model entirely.
type Local struct {
	*Classifier
	// NewModel builds the lightweight local learner per adaptation.
	NewModel func() ml.Classifier
}

// NewLocal creates a local-only adaptive model.
func NewLocal(f *feat.Featurizer, newModel func() ml.Classifier, alpha float64) *Local {
	return &Local{
		Classifier: NewClassifier(f, nil, alpha),
		NewModel:   newModel,
	}
}

// Adapt implements Adaptive by retraining from scratch on local pairs.
func (l *Local) Adapt(local []expdata.Pair) error {
	l.Model = l.NewModel()
	return l.Train(local)
}

// Compare implements Comparator; an unadapted Local predicts Unsure.
func (l *Local) Compare(p1, p2 *plan.Plan) expdata.Label {
	if l.Model == nil || !l.Trained() {
		return expdata.Unsure
	}
	return l.Classifier.Compare(p1, p2)
}

// CompareBatch implements BatchComparator; an unadapted Local predicts
// Unsure for every pair, as Compare does.
func (l *Local) CompareBatch(pairs []PlanPair, out []expdata.Label) []expdata.Label {
	if l.Model == nil || !l.Trained() {
		out = growLabels(out, len(pairs))
		for i := range out {
			out[i] = expdata.Unsure
		}
		return out
	}
	return l.Classifier.CompareBatch(pairs, out)
}

// Uncertainty combines an offline and a local classifier by trusting
// whichever reports the lower prediction uncertainty (1 − max probability).
type Uncertainty struct {
	Offline *Classifier
	Local   *Local
}

// NewUncertainty wires the uncertainty-arbitrated combination.
func NewUncertainty(offline *Classifier, local *Local) *Uncertainty {
	return &Uncertainty{Offline: offline, Local: local}
}

// Adapt implements Adaptive.
func (u *Uncertainty) Adapt(local []expdata.Pair) error { return u.Local.Adapt(local) }

// Compare implements Comparator.
func (u *Uncertainty) Compare(p1, p2 *plan.Plan) expdata.Label {
	if u.Local.Model == nil || !u.Local.Trained() {
		return u.Offline.Compare(p1, p2)
	}
	op := u.Offline.PredictProba(p1, p2)
	lp := u.Local.PredictProba(p1, p2)
	if ml.Uncertainty(lp) <= ml.Uncertainty(op) {
		return expdata.Label(util.ArgMax(lp))
	}
	return expdata.Label(util.ArgMax(op))
}

// NearestNeighbor uses the local model only when the query point lies
// within Threshold (cosine distance) of some local training point,
// otherwise it defers to the offline model.
type NearestNeighbor struct {
	Offline   *Classifier
	Local     *Local
	Threshold float64

	index *knn.Classifier
}

// NewNearestNeighbor wires the neighbourhood-gated combination. The paper
// uses cosine distance; threshold 0 defaults to 0.05.
func NewNearestNeighbor(offline *Classifier, local *Local, threshold float64) *NearestNeighbor {
	if threshold <= 0 {
		threshold = 0.05
	}
	return &NearestNeighbor{Offline: offline, Local: local, Threshold: threshold}
}

// Adapt implements Adaptive: retrains the local model and rebuilds the
// neighbourhood index on the local feature vectors.
func (n *NearestNeighbor) Adapt(local []expdata.Pair) error {
	if err := n.Local.Adapt(local); err != nil {
		return err
	}
	X, y := n.Local.Vectorize(local)
	n.index = knn.New(knn.Config{K: 1, Metric: knn.Cosine})
	return n.index.Fit(X, y, expdata.NumLabels)
}

// Compare implements Comparator.
func (n *NearestNeighbor) Compare(p1, p2 *plan.Plan) expdata.Label {
	if n.index == nil {
		return n.Offline.Compare(p1, p2)
	}
	x := n.Local.Feat.Pair(p1, p2)
	if n.index.NearestDistance(x) <= n.Threshold {
		return expdata.Label(util.ArgMax(n.Local.Model.PredictProba(x)))
	}
	return n.Offline.Compare(p1, p2)
}

// Meta learns which underlying model to trust: a small random forest over
// meta-features (both models' probability vectors, their uncertainties,
// and the local nearest-neighbour distance) trained on the local pairs.
type Meta struct {
	Offline *Classifier
	Local   *Local
	Seed    int64

	meta  *forest.Classifier
	index *knn.Classifier
}

// NewMeta wires the meta-model combination.
func NewMeta(offline *Classifier, local *Local, seed int64) *Meta {
	return &Meta{Offline: offline, Local: local, Seed: seed}
}

// metaFeatures builds the meta input for one pair vector.
func (m *Meta) metaFeatures(x []float64) []float64 {
	op := m.Offline.Model.PredictProba(x)
	lp := m.Local.Model.PredictProba(x)
	nnDist := 1.0
	if m.index != nil {
		nnDist = m.index.NearestDistance(x)
	}
	out := make([]float64, 0, 2*expdata.NumLabels+3)
	out = append(out, op...)
	out = append(out, lp...)
	out = append(out, ml.Uncertainty(op), ml.Uncertainty(lp), nnDist)
	return out
}

// Adapt implements Adaptive: trains the local model on the local pairs and
// the meta forest on held-out meta-features (2-fold cross-prediction keeps
// the meta model from just copying an overfit local model).
func (m *Meta) Adapt(local []expdata.Pair) error {
	if len(local) < 4 {
		return fmt.Errorf("models: meta adaptation needs at least 4 local pairs")
	}
	if err := m.Local.Adapt(local); err != nil {
		return err
	}
	X, y := m.Local.Vectorize(local)
	m.index = knn.New(knn.Config{K: 1, Metric: knn.Cosine})
	if err := m.index.Fit(X, y, expdata.NumLabels); err != nil {
		return err
	}
	metaX := make([][]float64, len(X))
	for i := range X {
		metaX[i] = m.metaFeatures(X[i])
	}
	m.meta = forest.NewClassifier(forest.Config{Trees: 50, Seed: m.Seed})
	return m.meta.Fit(metaX, y, expdata.NumLabels)
}

// Compare implements Comparator.
func (m *Meta) Compare(p1, p2 *plan.Plan) expdata.Label {
	if m.meta == nil {
		return m.Offline.Compare(p1, p2)
	}
	x := m.Offline.Feat.Pair(p1, p2)
	return expdata.Label(ml.Predict(m.meta, m.metaFeatures(x)))
}
