package tuner

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/util"
)

// serialOnly hides a comparator's CompareBatch so the tuner takes the
// serial gate path. It also hides a *models.Classifier from
// models.Memoize, so every pair runs the model.
type serialOnly struct{ c models.Comparator }

func (s serialOnly) Compare(p1, p2 *plan.Plan) expdata.Label { return s.c.Compare(p1, p2) }

// countingModel forwards every inference path to a base learner and counts
// the rows it infers.
type countingModel struct {
	ml.Classifier
	rows atomic.Int64
}

func (c *countingModel) PredictProba(x []float64) []float64 {
	c.rows.Add(1)
	return c.Classifier.PredictProba(x)
}

func (c *countingModel) PredictProbaInto(x, out []float64) []float64 {
	c.rows.Add(1)
	return ml.PredictProbaInto(c.Classifier, x, out)
}

func (c *countingModel) PredictProbaBatch(X, out [][]float64) [][]float64 {
	c.rows.Add(int64(len(X)))
	return ml.PredictProbaBatch(c.Classifier, X, out)
}

// TestBatchedGateMatchesSerial runs the same tune with the classifier's
// memoized, batched gate and with both hidden; recommendations and gate
// tallies must be identical, since CompareBatch is defined to equal
// per-pair Compare and the memo answers like the model. The memoized run
// must infer fewer vectors than the control classifies pairs.
func TestBatchedGateMatchesSerial(t *testing.T) {
	e := newEnv(t)
	ds, err := expdata.Collect(e.w, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 4, ExecRepeats: 1, StatsSampleSize: 256, StatsBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	clf := models.NewClassifier(feat.Default(), models.RF(25, 7), expdata.DefaultAlpha)
	if err := clf.Train(ds.Pairs(20, util.NewRNG(5))); err != nil {
		t.Fatal(err)
	}
	cm := &countingModel{Classifier: clf.Model}
	counted := models.NewClassifier(clf.Feat, cm, clf.Alpha)

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	qs := e.w.Queries[:4]
	g0 := gateCounts()
	batched := New(e.w.Schema, e.whatIf, counted, Options{MaxNewIndexes: 3})
	recB, err := batched.TuneWorkload(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g1 := gateCounts()
	inferred := cm.rows.Swap(0)
	serial := New(e.w.Schema, e.whatIf, serialOnly{c: counted}, Options{MaxNewIndexes: 3})
	recS, err := serial.TuneWorkload(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := gateCounts()
	classified := cm.rows.Load()
	if recB.Config.Fingerprint() != recS.Config.Fingerprint() {
		t.Fatalf("batched gate changed the recommendation:\n%v\nvs\n%v", recB.Config, recS.Config)
	}
	if recB.EstCost != recS.EstCost {
		t.Fatalf("batched gate changed the estimated cost: %v vs %v", recB.EstCost, recS.EstCost)
	}
	for k := range g0 {
		if b, s := g1[k]-g0[k], g2[k]-g1[k]; b != s {
			t.Fatalf("gate tallies (regression, improvement, unsure): memoized %v, control %v",
				[3]int64{g1[0] - g0[0], g1[1] - g0[1], g1[2] - g0[2]}, [3]int64{g2[0] - g1[0], g2[1] - g1[1], g2[2] - g1[2]})
		}
	}
	if inferred >= classified {
		t.Fatalf("memoized run inferred %d vectors for %d classified pairs", inferred, classified)
	}
	t.Logf("memoized run inferred %d vectors for %d classified pairs", inferred, classified)
}
