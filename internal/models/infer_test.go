package models

import (
	"math"
	"testing"

	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/race"
	"repro/internal/util"
)

// scanPlan builds a minimal two-operator plan with tunable estimates.
func scanPlan(scanRows, seekRows float64) *plan.Plan {
	scan := &plan.Node{Op: plan.TableScan, Table: "a", EstRows: scanRows, EstRowWidth: 8, EstCost: scanRows, EstBytesProcessed: scanRows * 8}
	seek := &plan.Node{Op: plan.IndexSeek, Table: "b", EstRows: seekRows, EstRowWidth: 8, EstCost: seekRows / 10, EstBytesProcessed: seekRows * 8}
	join := &plan.Node{Op: plan.HashJoin, Kids: [2]*plan.Node{scan, seek}, EstRows: scanRows / 2, EstRowWidth: 16, EstCost: scanRows / 4, EstBytesProcessed: (scanRows + seekRows) * 8}
	return &plan.Plan{Root: join, Query: &query.Query{Name: "q"}, EstTotalCost: scanRows + seekRows/10 + scanRows/4}
}

// trainedPairClassifier fits a small forest over synthetic pair vectors so
// Compare has a real model to run.
func trainedPairClassifier(t *testing.T) *Classifier {
	t.Helper()
	f := feat.Default()
	c := NewClassifier(f, forest.NewClassifier(forest.Config{Trees: 10, Seed: 2}), 0.2)
	rng := util.NewRNG(9)
	d := f.PairDim()
	X := make([][]float64, 120)
	y := make([]int, len(X))
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Intn(expdata.NumLabels)
	}
	if err := c.TrainVectors(X, y); err != nil {
		t.Fatal(err)
	}
	return c
}

func randomPlanPairs(n int) []PlanPair {
	rng := util.NewRNG(31)
	pairs := make([]PlanPair, n)
	for i := range pairs {
		pairs[i] = PlanPair{
			P1: scanPlan(100+rng.Float64()*5000, 10+rng.Float64()*500),
			P2: scanPlan(100+rng.Float64()*5000, 10+rng.Float64()*500),
		}
	}
	return pairs
}

// TestCompareMatchesReference pins Compare's pooled path to the original
// definition: argmax over the model's probabilities of the pair vector.
func TestCompareMatchesReference(t *testing.T) {
	c := trainedPairClassifier(t)
	for _, p := range randomPlanPairs(40) {
		want := expdata.Label(ml.Predict(c.Model, c.Feat.Pair(p.P1, p.P2)))
		if got := c.Compare(p.P1, p.P2); got != want {
			t.Fatalf("Compare=%v want %v", got, want)
		}
	}
}

func TestCompareBatchMatchesSequential(t *testing.T) {
	c := trainedPairClassifier(t)
	pairs := randomPlanPairs(40)
	batch := c.CompareBatch(pairs, nil)
	viaAll := CompareAll(c, pairs, nil)
	for i, p := range pairs {
		want := c.Compare(p.P1, p.P2)
		if batch[i] != want || viaAll[i] != want {
			t.Fatalf("pair %d: batch=%v all=%v want %v", i, batch[i], viaAll[i], want)
		}
	}
	// The optimizer baseline has no batched path: CompareAll loops Compare.
	ob := NewOptimizerBaseline(0.2)
	obBatch := CompareAll(ob, pairs, nil)
	for i, p := range pairs {
		if want := ob.Compare(p.P1, p.P2); obBatch[i] != want {
			t.Fatalf("baseline pair %d: %v want %v", i, obBatch[i], want)
		}
	}
}

// TestCompareProbaMatchesBatch checks the probabilities driving the batch
// verdicts are bit-identical to the single-pair path.
func TestCompareProbaMatchesBatch(t *testing.T) {
	c := trainedPairClassifier(t)
	pairs := randomPlanPairs(10)
	X := make([][]float64, len(pairs))
	for i, p := range pairs {
		X[i] = c.Feat.Pair(p.P1, p.P2)
	}
	P := ml.PredictProbaBatch(c.Model, X, nil)
	for i, p := range pairs {
		want := c.PredictProba(p.P1, p.P2)
		for k := range want {
			if math.Float64bits(P[i][k]) != math.Float64bits(want[k]) {
				t.Fatalf("pair %d class %d: %v vs %v", i, k, P[i][k], want[k])
			}
		}
	}
}

func TestCompareDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are not stable under -race (sync.Pool drops Puts)")
	}
	c := trainedPairClassifier(t)
	p := randomPlanPairs(1)[0]
	c.Compare(p.P1, p.P2) // warm the scratch pools
	allocs := testing.AllocsPerRun(200, func() {
		c.Compare(p.P1, p.P2)
	})
	if allocs != 0 {
		t.Fatalf("Compare allocated %.1f times per run, want 0", allocs)
	}
}
