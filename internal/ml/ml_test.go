package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/util"
)

func TestConfusionMetrics(t *testing.T) {
	// true:  0 0 0 1 1 2
	// pred:  0 1 0 1 1 0
	c := ConfusionOf([]int{0, 0, 0, 1, 1, 2}, []int{0, 1, 0, 1, 1, 0}, 3)
	m0 := c.Metrics(0)
	if math.Abs(m0.Precision-2.0/3) > 1e-9 || math.Abs(m0.Recall-2.0/3) > 1e-9 {
		t.Fatalf("class0 metrics: %+v", m0)
	}
	m1 := c.Metrics(1)
	if math.Abs(m1.Precision-2.0/3) > 1e-9 || m1.Recall != 1 {
		t.Fatalf("class1 metrics: %+v", m1)
	}
	m2 := c.Metrics(2)
	if m2.Precision != 0 || m2.Recall != 0 || m2.F1 != 0 {
		t.Fatalf("class2 metrics: %+v", m2)
	}
	if math.Abs(c.Accuracy()-4.0/6) > 1e-9 {
		t.Fatalf("accuracy: %v", c.Accuracy())
	}
	if m0.Support != 3 || m2.Support != 1 {
		t.Fatal("support wrong")
	}
}

func TestF1Formula(t *testing.T) {
	// Perfect predictions give F1=1 for all classes.
	y := []int{0, 1, 2, 0, 1, 2}
	c := ConfusionOf(y, y, 3)
	for k := 0; k < 3; k++ {
		if c.Metrics(k).F1 != 1 {
			t.Fatalf("perfect F1 class %d: %v", k, c.Metrics(k).F1)
		}
	}
}

func TestKFold(t *testing.T) {
	folds := KFold(100, 5, util.NewRNG(1))
	if len(folds) != 5 {
		t.Fatalf("folds: %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		if len(f[0])+len(f[1]) != 100 {
			t.Fatal("fold sizes must cover the data")
		}
		for _, i := range f[1] {
			seen[i]++
		}
		inTrain := map[int]bool{}
		for _, i := range f[0] {
			inTrain[i] = true
		}
		for _, i := range f[1] {
			if inTrain[i] {
				t.Fatal("train/test overlap within fold")
			}
		}
	}
	for i := 0; i < 100; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d appears %d times in test folds", i, seen[i])
		}
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 100}, {2, 200}, {3, 300}}
	s := FitStandardizer(X)
	Xs := s.TransformAll(X)
	for j := 0; j < 2; j++ {
		var mean float64
		for i := range Xs {
			mean += Xs[i][j]
		}
		if math.Abs(mean/3) > 1e-9 {
			t.Fatalf("column %d mean not 0", j)
		}
	}
	// Constant columns must not divide by zero.
	c := FitStandardizer([][]float64{{5}, {5}})
	v := c.Transform([]float64{5})
	if math.IsNaN(v[0]) || math.IsInf(v[0], 0) {
		t.Fatal("constant column transform broken")
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum: %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatal("softmax ordering")
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || p[1] <= p[0] {
		t.Fatal("softmax overflow handling")
	}
}

func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				logits = append(logits, util.Clip(v, -1e6, 1e6))
			}
		}
		if len(logits) == 0 {
			return true
		}
		p := Softmax(logits)
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistances(t *testing.T) {
	if d := CosineDistance([]float64{1, 0}, []float64{1, 0}); math.Abs(d) > 1e-12 {
		t.Fatalf("cosine identical: %v", d)
	}
	if d := CosineDistance([]float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("cosine orthogonal: %v", d)
	}
	if d := CosineDistance([]float64{0, 0}, []float64{0, 0}); d != 0 {
		t.Fatalf("cosine zero-zero: %v", d)
	}
	if d := CosineDistance([]float64{0, 0}, []float64{1, 0}); d != 1 {
		t.Fatalf("cosine zero-nonzero: %v", d)
	}
	if d := EuclideanDistance([]float64{0, 3}, []float64{4, 0}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("euclidean: %v", d)
	}
}

func TestUncertainty(t *testing.T) {
	if u := Uncertainty([]float64{0.9, 0.1}); math.Abs(u-0.1) > 1e-12 {
		t.Fatalf("uncertainty: %v", u)
	}
	if u := Uncertainty(nil); u != 1 {
		t.Fatal("empty proba should be fully uncertain")
	}
}

func TestSubset(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{10, 20, 30}
	sx, sy := Subset(X, y, []int{2, 0})
	if sx[0][0] != 3 || sy[1] != 10 {
		t.Fatal("subset wrong")
	}
}
