package ml

import (
	"fmt"

	"repro/internal/util"
)

// CrossValF1 runs k-fold cross-validation of a classifier family and
// returns the mean F1 of the given class — the model-selection procedure
// of §7.4. build must return a fresh untrained classifier per fold and be
// safe for concurrent calls: folds fit in parallel (GOMAXPROCS-bounded).
func CrossValF1(build func() Classifier, X [][]float64, y []int, numClasses, folds, class int, rng *util.RNG) (float64, error) {
	return CrossValF1Workers(build, X, y, numClasses, folds, class, rng, 0)
}

// CrossValF1Workers is CrossValF1 with an explicit fold-parallelism bound
// (0 = GOMAXPROCS, 1 = serial). The fold assignment is drawn from rng
// before any fitting and scores reduce in fold order, so every setting
// returns the identical mean.
func CrossValF1Workers(build func() Classifier, X [][]float64, y []int, numClasses, folds, class int, rng *util.RNG, workers int) (float64, error) {
	if len(X) == 0 {
		return 0, fmt.Errorf("ml: empty dataset")
	}
	ks := KFold(len(X), folds, rng)
	scores := make([]float64, len(ks))
	err := ParallelFor(len(ks), workers, func(i int) error {
		fold := ks[i]
		trainX, trainY := Subset(X, y, fold[0])
		testX, testY := Subset(X, y, fold[1])
		c := build()
		if err := c.Fit(trainX, trainY, numClasses); err != nil {
			return err
		}
		scores[i] = F1OfClass(c, testX, testY, numClasses, class)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(ks)), nil
}
