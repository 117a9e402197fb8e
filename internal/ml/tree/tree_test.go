package tree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/util"
)

// grid builds a 2-feature dataset with an axis-aligned decision boundary:
// class 1 iff x0 > 10 && x1 > 20 — trivially learnable by a tree.
func grid(n int, seed int64) ([][]float64, []int) {
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		x0 := float64(rng.Intn(40))
		x1 := float64(rng.Intn(40))
		X[i] = []float64{x0, x1}
		if x0 > 10 && x1 > 20 {
			y[i] = 1
		}
	}
	return X, y
}

func TestClassifierPerfectOnAxisAligned(t *testing.T) {
	X, y := grid(500, 1)
	tr := New(Config{})
	if err := tr.FitClassifier(X, y, 2, nil); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		p := tr.PredictProba(X[i])
		if got := 0; p[1] > p[0] {
			got = 1
			_ = got
		}
		pred := 0
		if p[1] > p[0] {
			pred = 1
		}
		if pred != y[i] {
			t.Fatalf("misclassified training point %v", X[i])
		}
	}
}

func TestMinLeafRegularization(t *testing.T) {
	X, y := grid(500, 2)
	// Label noise makes the unregularized tree chase individual points.
	noise := util.NewRNG(7)
	for i := range y {
		if noise.Bool(0.15) {
			y[i] = 1 - y[i]
		}
	}
	small := New(Config{MinLeaf: 1})
	big := New(Config{MinLeaf: 100})
	if err := small.FitClassifier(X, y, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := big.FitClassifier(X, y, 2, nil); err != nil {
		t.Fatal(err)
	}
	if big.nodes >= small.nodes {
		t.Fatalf("MinLeaf should shrink the tree: %d vs %d", big.nodes, small.nodes)
	}
}

func TestMaxDepthBound(t *testing.T) {
	X, y := grid(500, 3)
	tr := New(Config{MaxDepth: 1})
	if err := tr.FitClassifier(X, y, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Depth-1 tree: a root split with two leaves = 3 nodes max.
	if tr.nodes > 3 {
		t.Fatalf("depth 1 tree has %d nodes", tr.nodes)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	X, y := grid(400, 4)
	tr := New(Config{MinLeaf: 2})
	if err := tr.FitClassifier(X, y, 2, nil); err != nil {
		t.Fatal(err)
	}
	d := tr.Encode()
	back, err := Decode(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		a := tr.PredictProba(X[i])
		b := back.PredictProba(X[i])
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("round trip changed prediction at %d", i)
			}
		}
	}
	// Regression trees round-trip too.
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v) * 3.5
	}
	rt := New(Config{MinLeaf: 2})
	if err := rt.FitRegressor(X, yf, nil); err != nil {
		t.Fatal(err)
	}
	rd, err := Decode(rt.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if rt.Predict(X[i]) != rd.Predict(X[i]) {
			t.Fatal("regression round trip changed prediction")
		}
	}
}

func TestDecodeRejectsMalformedDumps(t *testing.T) {
	if _, err := Decode(&Dump{}); err == nil {
		t.Fatal("empty dump should fail")
	}
	if _, err := Decode(&Dump{Feature: []int32{0}, Thresh: []float64{1}}); err == nil {
		t.Fatal("inconsistent arrays should fail")
	}
	if _, err := Decode(&Dump{
		Feature: []int32{0}, Thresh: []float64{1}, Left: []int32{5}, Right: []int32{6},
		Value: []float64{0},
	}); err == nil {
		t.Fatal("out-of-range children should fail")
	}
	if _, err := Decode(&Dump{
		Feature: []int32{-1}, Thresh: []float64{0}, Left: []int32{0}, Right: []int32{0},
		Value: []float64{1}, NumClasses: 3, Proba: []float64{0.5},
	}); err == nil {
		t.Fatal("short proba array should fail")
	}
	// A backward child reference would build a cyclic "tree" and hang
	// prediction forever: node 1 points back at node 0.
	if _, err := Decode(&Dump{
		Feature: []int32{0, 1, -1}, Thresh: []float64{1, 2, 0},
		Left: []int32{1, 0, 0}, Right: []int32{2, 2, 0},
		Value: []float64{0, 0, 0},
	}); err == nil {
		t.Fatal("backward child reference should fail")
	}
	// Self reference is the degenerate cycle.
	if _, err := Decode(&Dump{
		Feature: []int32{0, -1}, Thresh: []float64{1, 0},
		Left: []int32{1, 0}, Right: []int32{1, 0},
		Value: []float64{0, 0},
	}); err == nil {
		t.Fatal("shared child ids should fail")
	}
	if _, err := Decode(&Dump{
		Feature: []int32{-1}, Thresh: []float64{0}, Left: []int32{0}, Right: []int32{0},
		Value: []float64{1}, NumClasses: -2,
	}); err == nil {
		t.Fatal("negative class count should fail")
	}
}

func TestPropertyPredictionsWithinTrainingRange(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 8 {
			return true
		}
		X := make([][]float64, len(raw))
		y := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			X[i] = []float64{float64(int8(v))}
			y[i] = float64(v)
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		tr := New(Config{MinLeaf: 2})
		if err := tr.FitRegressor(X, y, nil); err != nil {
			return false
		}
		// Leaf values are means of training targets: always in range.
		for _, x := range X {
			p := tr.Predict(x)
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
