package ml_test

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbt"
	"repro/internal/ml/knn"
	"repro/internal/ml/linear"
	"repro/internal/ml/nn"
	"repro/internal/ml/tree"
	"repro/internal/util"
)

// xorish generates a nonlinearly-separable 3-class problem:
// class = 0 if x0*x1 > 0.25, 1 if x0*x1 < -0.25, else 2.
func xorish(n int, seed int64) ([][]float64, []int) {
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		x0 := rng.Float64()*2 - 1
		x1 := rng.Float64()*2 - 1
		X[i] = []float64{x0, x1, rng.Float64() * 0.01} // noise feature
		p := x0 * x1
		switch {
		case p > 0.25:
			y[i] = 0
		case p < -0.25:
			y[i] = 1
		default:
			y[i] = 2
		}
	}
	return X, y
}

// linearish generates a linearly separable 2-class problem.
func linearish(n int, seed int64) ([][]float64, []int) {
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		x0 := rng.Float64()*2 - 1
		x1 := rng.Float64()*2 - 1
		X[i] = []float64{x0, x1}
		if x0+2*x1 > 0.1 {
			y[i] = 1
		}
	}
	return X, y
}

func accuracy(c ml.Classifier, X [][]float64, y []int) float64 {
	correct := 0
	for i := range X {
		if ml.Predict(c, X[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

func TestTreeLearnsNonlinear(t *testing.T) {
	X, y := xorish(800, 1)
	Xt, yt := xorish(300, 2)
	tr := tree.New(tree.Config{MinLeaf: 2})
	if err := tr.FitClassifier(X, y, 3, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(treeAsClassifier{tr}, Xt, yt); acc < 0.85 {
		t.Fatalf("tree accuracy %v", acc)
	}
	if tr.MaxFeature() < 0 {
		t.Fatal("tree never split")
	}
}

type treeAsClassifier struct{ t *tree.Tree }

func (c treeAsClassifier) Fit(X [][]float64, y []int, k int) error { return nil }
func (c treeAsClassifier) PredictProba(x []float64) []float64      { return c.t.PredictProba(x) }

func TestTreeRegression(t *testing.T) {
	rng := util.NewRNG(3)
	X := make([][]float64, 600)
	y := make([]float64, 600)
	for i := range X {
		x := rng.Float64() * 10
		X[i] = []float64{x}
		y[i] = 3 * math.Floor(x) // step function: trees should nail this
	}
	tr := tree.New(tree.Config{MinLeaf: 3})
	if err := tr.FitRegressor(X, y, nil); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := range X {
		mae += math.Abs(tr.Predict(X[i]) - y[i])
	}
	if mae /= 600; mae > 1 {
		t.Fatalf("tree regression MAE %v", mae)
	}
}

func TestTreeRejectsBadInput(t *testing.T) {
	tr := tree.New(tree.Config{})
	if err := tr.FitClassifier(nil, nil, 2, nil); err == nil {
		t.Fatal("empty fit should fail")
	}
	if err := tr.FitClassifier([][]float64{{1}}, []int{0}, 1, nil); err == nil {
		t.Fatal("single class should fail")
	}
}

func TestForestBeatsGuessing(t *testing.T) {
	X, y := xorish(800, 4)
	Xt, yt := xorish(300, 5)
	f := forest.NewClassifier(forest.Config{Trees: 40, Seed: 6})
	if err := f.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(f, Xt, yt); acc < 0.85 {
		t.Fatalf("forest accuracy %v", acc)
	}
	if d, err := f.EncodeDump(); err != nil || len(d.Trees) != 40 {
		t.Fatal("tree count wrong")
	}
	// Probabilities normalized.
	p := f.PredictProba(Xt[0])
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatal("negative probability")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probability sum %v", sum)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	X, y := xorish(300, 7)
	f1 := forest.NewClassifier(forest.Config{Trees: 10, Seed: 42, Workers: 4})
	f2 := forest.NewClassifier(forest.Config{Trees: 10, Seed: 42, Workers: 1})
	if err := f1.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := X[i]
		p1, p2 := f1.PredictProba(x), f2.PredictProba(x)
		for c := range p1 {
			if math.Abs(p1[c]-p2[c]) > 1e-12 {
				t.Fatal("forest must be deterministic regardless of worker count")
			}
		}
	}
}

func TestForestRegressor(t *testing.T) {
	rng := util.NewRNG(8)
	X := make([][]float64, 500)
	y := make([]float64, 500)
	for i := range X {
		x := rng.Float64() * 6
		X[i] = []float64{x}
		y[i] = x * x
	}
	f := forest.NewRegressor(forest.Config{Trees: 30, Seed: 9})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := range X {
		mae += math.Abs(f.Predict(X[i]) - y[i])
	}
	if mae /= 500; mae > 3 {
		t.Fatalf("forest regression MAE %v", mae)
	}
}

func TestGBTClassifier(t *testing.T) {
	X, y := xorish(800, 10)
	Xt, yt := xorish(300, 11)
	g := gbt.NewClassifier(gbt.Config{Rounds: 40, MaxDepth: 4, Seed: 12})
	if err := g.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(g, Xt, yt); acc < 0.85 {
		t.Fatalf("gbt accuracy %v", acc)
	}
}

func TestGBTRegressor(t *testing.T) {
	rng := util.NewRNG(13)
	X := make([][]float64, 500)
	y := make([]float64, 500)
	for i := range X {
		x := rng.Float64()*4 - 2
		X[i] = []float64{x}
		y[i] = math.Sin(x * 2)
	}
	g := gbt.NewRegressor(gbt.Config{Rounds: 80, MaxDepth: 3, Seed: 14})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := range X {
		mae += math.Abs(g.Predict(X[i]) - y[i])
	}
	if mae /= 500; mae > 0.15 {
		t.Fatalf("gbt regression MAE %v", mae)
	}
}

func TestLGBMClassifier(t *testing.T) {
	X, y := xorish(800, 15)
	Xt, yt := xorish(300, 16)
	g := gbt.NewLGBMClassifier(gbt.LGBMConfig{Rounds: 40, MaxLeaves: 15, Seed: 17})
	if err := g.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(g, Xt, yt); acc < 0.85 {
		t.Fatalf("lgbm accuracy %v", acc)
	}
}

func TestLogisticLearnsLinear(t *testing.T) {
	X, y := linearish(800, 18)
	Xt, yt := linearish(300, 19)
	l := linear.NewLogistic(linear.Config{Epochs: 40, Seed: 20})
	if err := l.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(l, Xt, yt); acc < 0.92 {
		t.Fatalf("logistic accuracy %v", acc)
	}
}

func TestLogisticCannotLearnXor(t *testing.T) {
	// Sanity: a linear model must fail on the nonlinear problem; this
	// anchors the LR-vs-trees ordering the paper reports.
	X, y := xorish(800, 21)
	Xt, yt := xorish(300, 22)
	l := linear.NewLogistic(linear.Config{Epochs: 40, Seed: 23})
	if err := l.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(l, Xt, yt); acc > 0.8 {
		t.Fatalf("logistic should not ace xor: %v", acc)
	}
}

func TestLinearRegressor(t *testing.T) {
	rng := util.NewRNG(24)
	X := make([][]float64, 400)
	y := make([]float64, 400)
	for i := range X {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		X[i] = []float64{a, b}
		y[i] = 2*a - 3*b + 1
	}
	l := linear.NewLinear(linear.Config{Epochs: 200, LearningRate: 0.1, Seed: 25})
	if err := l.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := range X {
		mae += math.Abs(l.Predict(X[i]) - y[i])
	}
	if mae /= 400; mae > 0.5 {
		t.Fatalf("linear regression MAE %v", mae)
	}
}

func TestKNN(t *testing.T) {
	X, y := xorish(800, 26)
	Xt, yt := xorish(200, 27)
	k := knn.New(knn.Config{K: 7, Metric: knn.Euclidean})
	if err := k.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(k, Xt, yt); acc < 0.8 {
		t.Fatalf("knn accuracy %v", acc)
	}
	// NearestDistance of a training point is ~0.
	if d := k.NearestDistance(X[0]); d > 1e-9 {
		t.Fatalf("nearest distance of training point: %v", d)
	}
	idx, dists := k.Neighbors(Xt[0], 3)
	if len(idx) != 3 || len(dists) != 3 {
		t.Fatal("neighbors count")
	}
	if dists[0] > dists[1] || dists[1] > dists[2] {
		t.Fatal("neighbors must be sorted by distance")
	}
}

func TestDNNFullyConnected(t *testing.T) {
	X, y := xorish(700, 28)
	Xt, yt := xorish(250, 29)
	net := nn.New(nn.Config{
		Hidden: []nn.LayerSpec{
			{Kind: nn.Dense, Out: 16, Act: nn.Tanh, Dropout: 0.1},
			{Kind: nn.Dense, Out: 16, Act: nn.Tanh},
		},
		Epochs: 40, Seed: 30, AdaptLR: true,
	})
	if err := net.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(net, Xt, yt); acc < 0.8 {
		t.Fatalf("dnn accuracy %v", acc)
	}
}

func TestDNNPartialAndSkipAndHighway(t *testing.T) {
	// Group features in pairs and verify partially-connected + skip +
	// highway layers train end to end.
	X, y := xorish(500, 31)
	groups := []int{0, 0, -1} // x0,x1 in group 0; noise ungrouped
	net := nn.New(nn.Config{
		Hidden: []nn.LayerSpec{
			{Kind: nn.PartialGroup, Out: 4, Act: nn.Tanh},
			{Kind: nn.PartialGroup, Out: 1, Act: nn.Tanh},
			{Kind: nn.Dense, Out: 12, Act: nn.Tanh},
			{Kind: nn.Dense, Out: 12, Act: nn.Tanh, Skip: true},
			{Kind: nn.Highway, Act: nn.Tanh},
		},
		KeyGroups: groups,
		Epochs:    40, Seed: 32,
	})
	if err := net.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	Xt, yt := xorish(200, 33)
	if acc := accuracy(net, Xt, yt); acc < 0.7 {
		t.Fatalf("partial dnn accuracy %v", acc)
	}
	// Hidden exposes the last hidden layer at its width: the highway layer
	// keeps the 12 units of the dense layers before it.
	if h := net.Hidden(X[0]); len(h) != 12 {
		t.Fatalf("hidden dim %d != 12", len(h))
	}
}

func TestDNNPartialRequiresGroups(t *testing.T) {
	net := nn.New(nn.Config{Hidden: []nn.LayerSpec{{Kind: nn.PartialGroup, Out: 2}}})
	if err := net.Fit([][]float64{{1, 2}}, []int{0}, 2); err == nil {
		t.Fatal("partial layer without groups should fail")
	}
}
