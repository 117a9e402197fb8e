package nn

import (
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/obs"
)

// FitTargets trains the network as a regressor: the output layer is linear
// (identity activation, one unit per target dimension) and the loss is mean
// squared error. This is the training path of the plan autoencoder
// (internal/embed): targets equal inputs and the bottleneck hidden layer
// becomes the embedding. The classification path (Fit/train) is untouched —
// the two losses never mix on one network.
//
// Training is strictly serial and seed-driven (initialization, shuffling,
// dropout all come from cfg.Seed), so identical inputs produce bit-identical
// weights at any host parallelism setting.
func (n *Net) FitTargets(X, T [][]float64) error {
	if len(X) == 0 {
		return fmt.Errorf("nn: empty training set")
	}
	if len(T) != len(X) {
		return fmt.Errorf("nn: %d inputs but %d targets", len(X), len(T))
	}
	outDim := len(T[0])
	if outDim == 0 {
		return fmt.Errorf("nn: empty target vector")
	}
	if !n.built {
		if err := n.build(len(X[0]), outDim); err != nil {
			return err
		}
		n.std = ml.FitStandardizer(X)
	}
	if n.k != outDim {
		return fmt.Errorf("nn: network has %d outputs, targets have %d", n.k, outDim)
	}
	return n.trainTargets(X, T, n.cfg.Epochs)
}

// trainTargets is train() with squared-error loss and a linear output:
// dL/dout = pred − target. Shuffling, batching, Adam, and plateau halving
// match the classification path so the two stay behaviourally aligned.
func (n *Net) trainTargets(X, T [][]float64, epochs int) error {
	sp := obs.StartSpan("train.nn.mse")
	defer sp.End()
	Xs := n.std.TransformAll(X)
	nrows := len(Xs)
	order := seqIdx(nrows)
	gW := map[*block][][]float64{}
	gB := map[*block][]float64{}
	for _, b := range n.allBlocks() {
		if b.isPassthrough() {
			continue
		}
		m := make([][]float64, b.out)
		for o := range m {
			m[o] = make([]float64, len(b.inIdx))
		}
		gW[b] = m
		gB[b] = make([]float64, b.out)
	}
	bestLoss := math.Inf(1)
	plateau := 0
	adapts := 0
	for ep := 0; ep < epochs; ep++ {
		n.rng.Shuffle(nrows, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < nrows; start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > nrows {
				end = nrows
			}
			batch := order[start:end]
			for b, m := range gW {
				for o := range m {
					for i := range m[o] {
						m[o][i] = 0
					}
				}
				for o := range gB[b] {
					gB[b][o] = 0
				}
			}
			for _, i := range batch {
				cur := Xs[i]
				stack := n.stack()
				for _, l := range stack {
					cur = l.forward(cur, true, n.rng)
				}
				t := T[i]
				dout := make([]float64, len(cur))
				for c := range cur {
					d := cur[c] - t[c]
					dout[c] = d
					epochLoss += 0.5 * d * d
				}
				for li := len(stack) - 1; li >= 0; li-- {
					dout = stack[li].backward(dout, gW, gB)
				}
			}
			n.applyGrads(gW, gB, float64(len(batch)))
		}
		epochLoss /= float64(nrows)
		mEpochs.Inc()
		mEpochLoss.Set(epochLoss)
		if n.cfg.AdaptLR {
			if epochLoss < bestLoss-1e-4 {
				bestLoss = epochLoss
				plateau = 0
			} else {
				plateau++
				if plateau >= 3 && adapts < 10 {
					n.lr /= 2
					mLRHalved.Inc()
					adapts++
					plateau = 0
				}
			}
		}
	}
	return nil
}
