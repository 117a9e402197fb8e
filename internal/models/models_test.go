package models

import (
	"testing"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/util"
	"repro/internal/workload"
)

// corpus collects a small two-database corpus once per test binary.
var (
	sharedCorpus *expdata.Corpus
)

func getCorpus(t testing.TB) *expdata.Corpus {
	t.Helper()
	if sharedCorpus != nil {
		return sharedCorpus
	}
	ws := []*workload.Workload{
		workload.TPCH("tpch-m", 1500, 5),
		workload.Customer("cust-m", 23, 2, 0.06),
	}
	c, err := expdata.CollectCorpus(ws, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 8, ExecRepeats: 2, StatsSampleSize: 256, StatsBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	sharedCorpus = c
	return c
}

func trainTest(t testing.TB, mode expdata.SplitMode) (train, test []expdata.Pair) {
	t.Helper()
	train, test = expdata.Split(getCorpus(t), mode, 0.6, 40, util.NewRNG(7))
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty split")
	}
	return train, test
}

func TestClassifierBeatsOptimizerOnPairSplit(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	clf := NewClassifier(feat.Default(), RF(60, 11), expdata.DefaultAlpha)
	if err := clf.Train(train); err != nil {
		t.Fatal(err)
	}
	clfF1 := EvaluateF1(clf, test, expdata.DefaultAlpha, expdata.Regression)
	optF1 := EvaluateF1(NewOptimizerBaseline(expdata.DefaultAlpha), test, expdata.DefaultAlpha, expdata.Regression)
	t.Logf("classifier F1=%.3f optimizer F1=%.3f", clfF1, optF1)
	if clfF1 <= optF1 {
		t.Fatalf("the paper's core claim failed: classifier %v <= optimizer %v", clfF1, optF1)
	}
	if clfF1 < 0.6 {
		t.Fatalf("classifier F1 suspiciously low: %v", clfF1)
	}
}

func TestClassifierCompareAndProba(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	clf := NewClassifier(feat.Default(), RF(30, 13), expdata.DefaultAlpha)
	if err := clf.Train(train); err != nil {
		t.Fatal(err)
	}
	if !clf.Trained() {
		t.Fatal("Trained flag")
	}
	p := test[0]
	proba := clf.PredictProba(p.P1.Plan, p.P2.Plan)
	if len(proba) != expdata.NumLabels {
		t.Fatalf("proba len %d", len(proba))
	}
	var sum float64
	for _, v := range proba {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("proba sum %v", sum)
	}
}

func TestClassifierRejectsEmptyTraining(t *testing.T) {
	clf := NewClassifier(feat.Default(), RF(10, 1), 0)
	if err := clf.Train(nil); err == nil {
		t.Fatal("empty training should fail")
	}
	if clf.Alpha != expdata.DefaultAlpha {
		t.Fatal("alpha default")
	}
}

func TestPlanRegressorPredictsCostOrdering(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	pr := NewPlanRegressor(feat.Default(), RFRegressor(40, 17), expdata.DefaultAlpha)
	if err := pr.Train(UniquePlans(train)); err != nil {
		t.Fatal(err)
	}
	// On training plans, predicted cost should correlate with actual.
	plans := UniquePlans(train)
	correct := 0
	total := 0
	for i := 0; i+1 < len(plans) && total < 200; i += 2 {
		a, b := plans[i], plans[i+1]
		if a.Cost == b.Cost {
			continue
		}
		total++
		if (pr.PredictCost(a.Plan) < pr.PredictCost(b.Plan)) == (a.Cost < b.Cost) {
			correct++
		}
	}
	if total > 0 && float64(correct)/float64(total) < 0.7 {
		t.Fatalf("plan regressor ordering accuracy %d/%d", correct, total)
	}
	// F1 should be meaningfully above zero on test pairs.
	if f1 := EvaluateF1(pr, test, expdata.DefaultAlpha, expdata.Regression); f1 < 0.2 {
		t.Fatalf("plan regressor test F1 too low: %v", f1)
	}
}

func TestOperatorRegressor(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	or := NewOperatorRegressor(func() ml.Regressor { return LinearRegressor(19) }, expdata.DefaultAlpha)
	if err := or.Train(UniquePlans(train)); err != nil {
		t.Fatal(err)
	}
	p := test[0]
	if c := or.PredictCost(p.P1.Plan); c <= 0 {
		t.Fatalf("operator model cost %v", c)
	}
	if or.Compare(p.P1.Plan, p.P2.Plan) > expdata.Unsure {
		t.Fatal("label out of range")
	}
}

func TestPairRatioRegressor(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	rr := NewPairRatioRegressor(feat.Default(), GBTRegressor(30, 21), expdata.DefaultAlpha)
	if err := rr.Train(train); err != nil {
		t.Fatal(err)
	}
	if f1 := EvaluateF1(rr, test, expdata.DefaultAlpha, expdata.Regression); f1 < 0.3 {
		t.Fatalf("pair ratio regressor F1 %v", f1)
	}
	p := test[0]
	if r := rr.PredictRatio(p.P1.Plan, p.P2.Plan); r <= 0 {
		t.Fatalf("ratio %v", r)
	}
}

func TestAdaptiveModelsImproveOnHeldOutDB(t *testing.T) {
	c := getCorpus(t)
	// Train offline on tpch-m, hold out cust-m.
	train, _ := expdata.HoldOutDatabase(c, "cust-m", 40, util.NewRNG(23))
	offline := NewClassifier(feat.Default(), RF(60, 25), expdata.DefaultAlpha)
	if err := offline.Train(train); err != nil {
		t.Fatal(err)
	}
	held := c.Set("cust-m")
	leak, rest := expdata.LeakPlans(held, 4, 40, util.NewRNG(27))
	if len(leak) == 0 || len(rest) == 0 {
		t.Fatal("leak split empty")
	}
	offF1 := EvaluateF1(offline, rest, expdata.DefaultAlpha, expdata.Regression)

	newLocal := func() *Local {
		return NewLocal(feat.Default(), func() ml.Classifier { return RF(30, 29) }, expdata.DefaultAlpha)
	}
	adaptives := map[string]Adaptive{
		"local":       newLocal(),
		"uncertainty": NewUncertainty(offline, newLocal()),
		"nn":          NewNearestNeighbor(offline, newLocal(), 0.05),
		"meta":        NewMeta(offline, newLocal(), 31),
	}
	improved := 0
	for name, a := range adaptives {
		if err := a.Adapt(leak); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f1 := EvaluateF1(a, rest, expdata.DefaultAlpha, expdata.Regression)
		t.Logf("%s F1=%.3f (offline %.3f)", name, f1, offF1)
		if f1 > offF1 {
			improved++
		}
	}
	if improved < 2 {
		t.Fatalf("expected most adaptive models to beat offline, got %d/4", improved)
	}
}

func TestUnadaptedAdaptivesFallBack(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	offline := NewClassifier(feat.Default(), RF(30, 33), expdata.DefaultAlpha)
	if err := offline.Train(train); err != nil {
		t.Fatal(err)
	}
	local := NewLocal(feat.Default(), func() ml.Classifier { return RF(10, 35) }, expdata.DefaultAlpha)
	p := test[0]
	// Unadapted Local answers Unsure; combiners defer to offline.
	if local.Compare(p.P1.Plan, p.P2.Plan) != expdata.Unsure {
		t.Fatal("unadapted local should be unsure")
	}
	pairs := []PlanPair{{P1: p.P1.Plan, P2: p.P2.Plan}, {P1: test[1].P1.Plan, P2: test[1].P2.Plan}}
	for i, v := range CompareAll(local, pairs, nil) {
		if v != expdata.Unsure {
			t.Fatalf("unadapted local's batched verdict %d = %v, want unsure", i, v)
		}
	}
	u := NewUncertainty(offline, local)
	nn := NewNearestNeighbor(offline, local, 0)
	m := NewMeta(offline, local, 37)
	want := offline.Compare(p.P1.Plan, p.P2.Plan)
	if u.Compare(p.P1.Plan, p.P2.Plan) != want || nn.Compare(p.P1.Plan, p.P2.Plan) != want || m.Compare(p.P1.Plan, p.P2.Plan) != want {
		t.Fatal("unadapted combiners must defer to offline")
	}
	if err := m.Adapt(nil); err == nil {
		t.Fatal("meta adaptation with no pairs should fail")
	}
}

func TestHybridDNN(t *testing.T) {
	train, test := trainTest(t, expdata.SplitPair)
	// Small net for test speed.
	f := feat.Default()
	net := DNN(f, DNNConfig{Arch: ArchPC, PartialLayers: 2, DenseLayers: 2, Width: 16, Epochs: 6, Seed: 39})
	hy := NewHybridDNN(net, forest.Config{Trees: 25, Seed: 41})
	clf := NewClassifier(f, hy, expdata.DefaultAlpha)
	// Subsample training pairs for speed.
	if len(train) > 800 {
		train = train[:800]
	}
	if err := clf.Train(train); err != nil {
		t.Fatal(err)
	}
	if f1 := EvaluateF1(clf, test, expdata.DefaultAlpha, expdata.Regression); f1 < 0.25 {
		t.Fatalf("hybrid DNN F1 %v", f1)
	}
	// Head adaptation trains without error and changes predictions at most.
	ha := NewHybridAdaptive(f, hy, expdata.DefaultAlpha)
	if err := ha.Adapt(train[:100]); err != nil {
		t.Fatal(err)
	}
}
