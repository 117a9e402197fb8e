package models

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/race"
)

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

// memoFixture returns a trained classifier, a classifier sharing its
// featurizer and model behind a countingModel, and memo traffic: batches
// that repeat pairs within and across batches, including pairs of fresh
// plan objects with the content of earlier ones and a pair whose vector
// differs from another's only in its last attribute, and the number of
// distinct pair vectors in them.
func memoFixture(t *testing.T) (c, counted *Classifier, cm *countingModel, batches [][]PlanPair, distinct int) {
	t.Helper()
	c = trainedPairClassifier(t)
	cm = &countingModel{Classifier: c.Model}
	counted = NewClassifier(c.Feat, cm, c.Alpha)
	ps := randomPlanPairs(12)
	same := randomPlanPairs(12) // equal content, new objects
	costlier := *ps[0].P2
	costlier.EstTotalCost++ // the vector's last attribute
	tail := PlanPair{P1: ps[0].P1, P2: &costlier}
	batches = [][]PlanPair{
		{ps[0], ps[1], ps[2], ps[0], ps[3], tail, ps[1], ps[0]},
		{ps[2], ps[4], same[4], ps[5], same[0], ps[6]},
		{ps[7], ps[7]},
		ps[:10],
		{same[8], ps[9], same[10], tail, ps[11]},
	}
	seen := map[string]bool{}
	for _, b := range batches {
		for _, p := range b {
			seen[string(appendVectorKey(nil, c.Feat.Pair(p.P1, p.P2)))] = true
		}
	}
	return c, counted, cm, batches, len(seen)
}

// TestMemoMatchesClassifier checks that the memo answers like the
// classifier through CompareBatch and Compare, and infers each distinct
// pair vector exactly once.
func TestMemoMatchesClassifier(t *testing.T) {
	c, counted, cm, batches, distinct := memoFixture(t)
	m := Memoize(counted).(BatchComparator)
	for round := 0; round < 2; round++ {
		for bi, b := range batches {
			got := m.CompareBatch(b, nil)
			for i, p := range b {
				if want := c.Compare(p.P1, p.P2); got[i] != want {
					t.Fatalf("round %d batch %d pair %d: CompareBatch=%v, classifier %v", round, bi, i, got[i], want)
				}
				if v := m.Compare(p.P1, p.P2); v != got[i] {
					t.Fatalf("round %d batch %d pair %d: Compare=%v, CompareBatch %v", round, bi, i, v, got[i])
				}
			}
		}
	}
	if n := cm.rows.Load(); n != int64(distinct) {
		t.Fatalf("memo ran %d inferences over %d distinct pair vectors", n, distinct)
	}

	// Compare alone infers each distinct vector once too.
	cm.rows.Store(0)
	m2 := Memoize(counted)
	for _, b := range batches {
		for _, p := range b {
			m2.Compare(p.P1, p.P2)
		}
	}
	if n := cm.rows.Load(); n != int64(distinct) {
		t.Fatalf("memo Compare ran %d inferences over %d distinct pair vectors", n, distinct)
	}
}

func TestMemoHitDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are not stable under -race (sync.Pool drops Puts)")
	}
	_, counted, _, batches, _ := memoFixture(t)
	m := Memoize(counted).(BatchComparator)
	b := batches[3]
	out := m.CompareBatch(b, nil) // every pair is now a hit
	p := b[0]
	if allocs := testing.AllocsPerRun(200, func() { m.Compare(p.P1, p.P2) }); allocs != 0 {
		t.Fatalf("a Compare hit allocated %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { m.CompareBatch(b, out) }); allocs != 0 {
		t.Fatalf("a CompareBatch of hits allocated %.1f times per run, want 0", allocs)
	}
}

// TestMemoConcurrent shares one memo between goroutines that classify
// overlapping batches; run it with -race.
func TestMemoConcurrent(t *testing.T) {
	c, counted, _, batches, _ := memoFixture(t)
	want := make([][]expdata.Label, len(batches))
	for bi, b := range batches {
		want[bi] = c.CompareBatch(b, nil)
	}
	m := Memoize(counted).(BatchComparator)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range batches {
				bi := (g + k) % len(batches)
				got := m.CompareBatch(batches[bi], nil)
				for i, p := range batches[bi] {
					if got[i] != want[bi][i] || m.Compare(p.P1, p.P2) != want[bi][i] {
						t.Errorf("goroutine %d batch %d pair %d: want %v", g, bi, i, want[bi][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoizePassesThrough checks that only a bare *Classifier is
// memoized: every other comparator already answers for itself.
func TestMemoizePassesThrough(t *testing.T) {
	ob := NewOptimizerBaseline(0.2)
	local := NewLocal(feat.Default(), func() ml.Classifier { return RF(5, 1) }, 0.2)
	for _, cmp := range []Comparator{nil, ob, local} {
		if got := Memoize(cmp); got != cmp {
			t.Fatalf("Memoize(%T) = %T, want it unchanged", cmp, got)
		}
	}
	// An unadapted Local still answers Unsure through CompareAll.
	for _, v := range CompareAll(Memoize(local), randomPlanPairs(3), nil) {
		if v != expdata.Unsure {
			t.Fatalf("unadapted Local through Memoize: %v", v)
		}
	}
	c := trainedPairClassifier(t)
	if _, ok := Memoize(c).(*verdictMemo); !ok {
		t.Fatal("a *Classifier was not memoized")
	}
}
