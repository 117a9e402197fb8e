package models

import (
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbt"
	"repro/internal/ml/linear"
	"repro/internal/ml/nn"
)

// The constructors below build base learners at the paper's configurations
// (scaled to this reproduction's data sizes, with tree counts and layer
// widths as knobs).

// RF builds a random-forest classifier: the paper's best offline model
// (min-leaf 1, Gini threshold 1e-6, §7.4). Training parallelism defaults
// to GOMAXPROCS; use RFWorkers to bound it.
func RF(trees int, seed int64) ml.Classifier {
	return RFWorkers(trees, seed, 0)
}

// RFWorkers is RF with an explicit training-parallelism bound
// (0 = GOMAXPROCS, 1 = serial). Tree seeds derive from seed alone, so every
// worker count trains the byte-identical forest.
func RFWorkers(trees int, seed int64, workers int) ml.Classifier {
	return forest.NewClassifier(forest.Config{
		Trees:             trees,
		MinLeaf:           1,
		ImpurityThreshold: 1e-6,
		Seed:              seed,
		Workers:           workers,
	})
}

// LGBM builds the LightGBM-style histogram/leaf-wise classifier.
func LGBM(rounds int, seed int64) ml.Classifier {
	return gbt.NewLGBMClassifier(gbt.LGBMConfig{Rounds: rounds, MaxLeaves: 31, Seed: seed})
}

// LR builds a logistic-regression classifier.
func LR(seed int64) ml.Classifier {
	return linear.NewLogistic(linear.Config{Epochs: 60, Seed: seed})
}

// RFRegressor builds a random-forest regressor for the plan-level model.
func RFRegressor(trees int, seed int64) ml.Regressor {
	return forest.NewRegressor(forest.Config{Trees: trees, MinLeaf: 2, Seed: seed})
}

// GBTRegressor builds a boosted-tree regressor for the pair-ratio model.
func GBTRegressor(rounds int, seed int64) ml.Regressor {
	return gbt.NewRegressor(gbt.Config{Rounds: rounds, MaxDepth: 6, Seed: seed})
}

// LinearRegressor builds a linear regressor (operator-level base model).
func LinearRegressor(seed int64) ml.Regressor {
	return linear.NewLinear(linear.Config{Epochs: 120, LearningRate: 0.05, Seed: seed})
}

// DNNArch selects a network architecture for the ablation of Appendix A.4.
type DNNArch int

// Architectures.
const (
	// ArchFC is a plain fully-connected network.
	ArchFC DNNArch = iota
	// ArchPC is the partially-connected network of §6.2.1.
	ArchPC
	// ArchPCSkip adds skip connections to the fully-connected part.
	ArchPCSkip
)

// DNNConfig sizes a network; zero values use reproduction-scale defaults
// (the paper's best is 3 partial + 12 dense layers of 64 neurons, which is
// proportionally reduced here to keep CPU training tractable).
type DNNConfig struct {
	Arch          DNNArch
	PartialLayers int
	DenseLayers   int
	Width         int
	Epochs        int
	Seed          int64
}

func (c DNNConfig) withDefaults() DNNConfig {
	if c.PartialLayers == 0 {
		c.PartialLayers = 2
	}
	if c.DenseLayers == 0 {
		c.DenseLayers = 4
	}
	if c.Width == 0 {
		c.Width = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	return c
}

// DNN builds a network for the given featurizer following §6.2.1/§7.4:
// tanh activations, clipped-normal init, dropout 0.2, L2 1e-3, Adam with
// plateau-halved learning rate starting at 0.01.
func DNN(f *feat.Featurizer, cfg DNNConfig) *nn.Net {
	cfg = cfg.withDefaults()
	var hidden []nn.LayerSpec
	if cfg.Arch != ArchFC {
		for i := 0; i < cfg.PartialLayers-1; i++ {
			hidden = append(hidden, nn.LayerSpec{Kind: nn.PartialGroup, Out: 4, Act: nn.Tanh})
		}
		// The last partial layer reduces to one neuron per key (§6.2.1).
		hidden = append(hidden, nn.LayerSpec{Kind: nn.PartialGroup, Out: 1, Act: nn.Tanh})
	}
	for i := 0; i < cfg.DenseLayers; i++ {
		spec := nn.LayerSpec{Kind: nn.Dense, Out: cfg.Width, Act: nn.Tanh, Dropout: 0.2}
		if cfg.Arch == ArchPCSkip && i > 0 {
			spec.Skip = true // widths match after the first dense layer
		}
		hidden = append(hidden, spec)
	}
	return nn.New(nn.Config{
		Hidden:       hidden,
		KeyGroups:    f.KeyGroups(),
		LearningRate: 0.01,
		L2:           1e-3,
		Epochs:       cfg.Epochs,
		BatchSize:    32,
		AdaptLR:      true,
		Seed:         cfg.Seed,
	})
}
