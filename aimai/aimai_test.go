package aimai

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/engine/plan"
)

func TestEndToEndFacade(t *testing.T) {
	w := TPCH("facade", 1200, 3)
	sys, err := Open(w, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Plan + execute under the empty configuration.
	q := w.Queries[5] // q6: selective scan
	p, err := sys.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstTotalCost <= 0 {
		t.Fatal("plan must carry estimates")
	}
	res, err := sys.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Fatal("execution must measure cost")
	}
	if res.Plan != p {
		t.Fatal("Execute must return the cached plan it executed")
	}
	nodes := 0
	p.Root.Walk(func(*plan.Node) { nodes++ })
	if len(res.Actuals) != nodes {
		t.Fatalf("%d actuals for %d plan nodes", len(res.Actuals), nodes)
	}

	// Collect data and train the classifier.
	data, err := sys.CollectExecutionData(CollectOptions{MaxConfigsPerQuery: 6, ExecRepeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := data.Pairs(30, NewRNG(5))
	if len(pairs) == 0 {
		t.Fatal("no pairs collected")
	}
	clf, err := TrainClassifier(pairs, ClassifierOptions{Trees: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	clfF1 := EvaluateF1(clf, pairs)
	optF1 := EvaluateF1(OptimizerBaseline(), pairs)
	if clfF1 <= optF1 {
		t.Fatalf("classifier (%.3f) should beat optimizer (%.3f) in-sample", clfF1, optF1)
	}

	// Tune a query with the classifier gate.
	tn := sys.NewTuner(clf, TunerOptions{})
	rec, err := tn.TuneQuery(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Plan == nil {
		t.Fatal("recommendation must carry the chosen plan")
	}

	// Continuous tuning round-trip.
	cont := sys.NewContinuousTuner(tn, ContinuousOptions{Iterations: 2})
	trace, err := cont.TuneQueryContinuously(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.InitialCost <= 0 {
		t.Fatal("continuous tuning must measure the baseline")
	}
}

func TestSuiteAndWorkloadBuilders(t *testing.T) {
	ws := Suite(0.02, 11)
	if len(ws) != 15 {
		t.Fatalf("suite size: %d", len(ws))
	}
	if w := TPCDS("ds", 800, 2); w.Schema.NumTables() != 20 {
		t.Fatal("tpcds builder")
	}
	if w := Customer("c", 3, 2, 0.05); len(w.Queries) == 0 {
		t.Fatal("customer builder")
	}
}

func TestOpenRejectsInvalidWorkload(t *testing.T) {
	w := TPCH("bad", 500, 1)
	w.Queries[0].Tables = append(w.Queries[0].Tables, "ghost")
	if _, err := Open(w, 1); err == nil {
		t.Fatal("invalid workload should fail Open")
	}
}

func TestTelemetryAndSerializationFacade(t *testing.T) {
	w := TPCH("facade-tel", 1000, 5)
	sys, err := Open(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.CollectExecutionData(CollectOptions{MaxConfigsPerQuery: 6, ExecRepeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := ExportTelemetry(&stream, data); err != nil {
		t.Fatal(err)
	}
	recs, err := ImportTelemetry(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(data.Plans) {
		t.Fatalf("telemetry records %d != plans %d", len(recs), len(data.Plans))
	}
	clf, err := TrainClassifierFromTelemetry(recs, ClassifierOptions{Trees: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !clf.Trained() {
		t.Fatal("telemetry-trained classifier should report trained")
	}
	// Save/load round trip through the facade.
	var blob bytes.Buffer
	if err := SaveClassifier(clf, &blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&blob)
	if err != nil {
		t.Fatal(err)
	}
	pairs := data.Pairs(20, NewRNG(9))
	if EvaluateF1(loaded, pairs) != EvaluateF1(clf, pairs) {
		t.Fatal("loaded model must score identically")
	}
	// The loaded model plugs straight into a tuner.
	tn := sys.NewTuner(loaded, TunerOptions{})
	if _, err := tn.TuneQuery(context.Background(), w.Queries[0], nil); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryTrainingSkipsBadCosts: a record with a NaN measured cost
// and one with an infinite estimate are skipped, so training on the stream
// with them saves the same model blob as training without them.
func TestTelemetryTrainingSkipsBadCosts(t *testing.T) {
	w := TPCH("facade-bad", 1000, 5)
	sys, err := Open(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.CollectExecutionData(CollectOptions{MaxConfigsPerQuery: 6, ExecRepeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := ExportTelemetry(&stream, data); err != nil {
		t.Fatal(err)
	}
	recs, err := ImportTelemetry(&stream)
	if err != nil {
		t.Fatal(err)
	}
	blob := func(recs []PlanRecord) []byte {
		t.Helper()
		clf, err := TrainClassifierFromTelemetry(recs, ClassifierOptions{Trees: 20, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := SaveClassifier(clf, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	nanCost, infEst := recs[0], recs[1]
	nanCost.Cost = math.NaN()
	infEst.EstTotalCost = math.Inf(1)
	hostile := append([]PlanRecord{nanCost, infEst}, recs...)
	if !bytes.Equal(blob(hostile), blob(recs)) {
		t.Fatal("bad-cost records changed the trained model")
	}
}

func TestParseSQLFacade(t *testing.T) {
	w := TPCH("facade-sql", 600, 5)
	sys, err := Open(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.ParseSQL("SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 40")
	if err != nil {
		t.Fatal(err)
	}
	q.Name = "adhoc"
	res, err := sys.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("scalar count rows: %d", len(res.Rows))
	}
	if _, err := sys.ParseSQL("SELECT nope FROM lineitem"); err == nil {
		t.Fatal("bad SQL should fail")
	}
}
