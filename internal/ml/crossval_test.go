package ml_test

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/util"
)

func TestCrossValF1(t *testing.T) {
	X, y := xorish(600, 51)
	score, err := ml.CrossValF1(func() ml.Classifier {
		return forest.NewClassifier(forest.Config{Trees: 20, Seed: 3})
	}, X, y, 3, 3, 0, util.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.75 {
		t.Fatalf("cv F1 too low: %v", score)
	}
	if _, err := ml.CrossValF1(func() ml.Classifier { return nil }, nil, nil, 2, 3, 0, util.NewRNG(1)); err == nil {
		t.Fatal("empty data should fail")
	}
}
