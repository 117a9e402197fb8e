package tuner

import (
	"context"
	"testing"

	"repro/internal/candidates"
	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/util"
	"repro/internal/workload"
)

type env struct {
	w      *workload.Workload
	whatIf *opt.WhatIf
	ex     *exec.Executor
}

func newEnv(t testing.TB) *env {
	t.Helper()
	w := workload.TPCH("tpch-tuner", 2000, 9)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), 512, 32)
	return &env{
		w:      w,
		whatIf: opt.NewWhatIf(opt.New(w.Schema, ds)),
		ex:     exec.New(w.DB),
	}
}

func TestCandidateGeneration(t *testing.T) {
	e := newEnv(t)
	q := e.w.Query("q6") // selective multi-predicate lineitem scan
	cands := candidates.CandidateIndexes(q, e.w.Schema)
	if len(cands) == 0 {
		t.Fatal("no candidates for a filtered scan query")
	}
	if max := len(q.Tables) * candidates.DefaultLimits().MaxPerTable; len(cands) > max {
		t.Fatalf("candidate budget exceeded: %d > %d", len(cands), max)
	}
	seen := map[string]bool{}
	hasLineitem := false
	for _, ix := range cands {
		if seen[ix.ID()] {
			t.Fatalf("duplicate candidate %s", ix.ID())
		}
		seen[ix.ID()] = true
		if ix.Table == "lineitem" {
			hasLineitem = true
		}
		if !q.HasTable(ix.Table) {
			t.Fatalf("candidate on unreferenced table %s", ix.Table)
		}
	}
	if !hasLineitem {
		t.Fatal("expected candidates on the filtered table")
	}
	// Deterministic.
	again := candidates.CandidateIndexes(q, e.w.Schema)
	for i := range cands {
		if cands[i].ID() != again[i].ID() {
			t.Fatal("candidate generation not deterministic")
		}
	}
}

func TestTuneQueryImprovesEstimatedCost(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{})
	q := e.w.Query("q6")
	rec, err := tn.TuneQuery(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewIndexes) == 0 {
		t.Fatal("expected an index recommendation for a selective scan")
	}
	if rec.EstImprovement <= 0 {
		t.Fatalf("estimated improvement %v", rec.EstImprovement)
	}
	if len(rec.NewIndexes) > tn.Opts.MaxNewIndexes {
		t.Fatal("index limit exceeded")
	}
}

func TestTuneQueryRespectsIndexLimit(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{MaxNewIndexes: 1})
	rec, err := tn.TuneQuery(context.Background(), e.w.Query("q3"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewIndexes) > 1 {
		t.Fatalf("limit 1 violated: %d", len(rec.NewIndexes))
	}
}

func TestTuneQueryRespectsStorageBudget(t *testing.T) {
	e := newEnv(t)
	// A tiny budget admits no index on lineitem.
	tn := New(e.w.Schema, e.whatIf, nil, Options{StorageBudget: 10})
	rec, err := tn.TuneQuery(context.Background(), e.w.Query("q6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewIndexes) != 0 {
		t.Fatalf("budget violated: %v", rec.NewIndexes)
	}
}

func TestOptTrThresholdBlocksWeakRecommendations(t *testing.T) {
	e := newEnv(t)
	// An absurd 99.9% improvement requirement returns the initial config.
	tn := New(e.w.Schema, e.whatIf, nil, Options{MinEstImprovement: 0.999})
	rec, err := tn.TuneQuery(context.Background(), e.w.Query("q6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewIndexes) != 0 {
		t.Fatal("OptTr threshold should have blocked the recommendation")
	}
}

func TestComparatorGatesSearch(t *testing.T) {
	e := newEnv(t)
	// A comparator that calls everything a regression must freeze tuning.
	veto := comparatorFunc(func() expdata.Label { return expdata.Regression })
	tn := New(e.w.Schema, e.whatIf, veto, Options{})
	rec, err := tn.TuneQuery(context.Background(), e.w.Query("q6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewIndexes) != 0 {
		t.Fatal("veto comparator should block all changes")
	}
	// The workload search starts from the initial plans without gating
	// them against themselves, so the veto freezes it rather than failing.
	wrec, err := tn.TuneWorkload(context.Background(), e.w.Queries[:6], nil)
	if err != nil {
		t.Fatalf("veto comparator failed the workload search: %v", err)
	}
	if len(wrec.NewIndexes) != 0 {
		t.Fatal("veto comparator should block all workload changes")
	}
	// A comparator that calls everything an improvement lets the tuner
	// advance freely.
	accept := comparatorFunc(func() expdata.Label { return expdata.Improvement })
	tn2 := New(e.w.Schema, e.whatIf, accept, Options{})
	rec2, err := tn2.TuneQuery(context.Background(), e.w.Query("q6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.NewIndexes) == 0 {
		t.Fatal("accepting comparator should allow changes")
	}
}

// comparatorFunc adapts a label constant into a models.Comparator.
type comparatorFunc func() expdata.Label

func (f comparatorFunc) Compare(_, _ *plan.Plan) expdata.Label { return f() }

func TestTuneWorkload(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{MaxNewIndexes: 4})
	qs := e.w.Queries[:6]
	rec, err := tn.TuneWorkload(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewIndexes) == 0 {
		t.Fatal("expected workload recommendation")
	}
	if len(rec.NewIndexes) > 4 {
		t.Fatal("workload index limit violated")
	}
	if rec.EstCost <= 0 {
		t.Fatal("estimated cost must be positive")
	}
	if _, err := tn.TuneWorkload(context.Background(), nil, nil); err == nil {
		t.Fatal("empty workload should fail")
	}
}

func TestContinuousQueryTuning(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{})
	cont := NewContinuous(tn, e.ex, ContinuousOpts{Iterations: 4, StopOnRegression: true, Seed: 13})
	notified := 0
	cont.OnData = func(d *expdata.Dataset) {
		notified++
		if d.DB != e.w.Name {
			t.Fatal("dataset db label wrong")
		}
	}
	trace, err := cont.TuneQueryContinuously(context.Background(), e.w.Query("q6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.InitialCost <= 0 || trace.FinalCost <= 0 {
		t.Fatal("costs must be measured")
	}
	if notified == 0 {
		t.Fatal("OnData never invoked")
	}
	if len(cont.Collected.Plans) == 0 {
		t.Fatal("no execution data collected")
	}
	// Reverts leave FinalCost no worse than (1+lambda) x initial at every
	// accepted step; the final configuration's cost equals the last
	// accepted measurement.
	for _, it := range trace.Iterations {
		if !it.Reverted && it.CostAfter > (1+cont.Opts.Lambda)*it.CostBefore {
			t.Fatal("accepted a measured regression")
		}
	}
}

func TestContinuousWithClassifier(t *testing.T) {
	e := newEnv(t)
	// Collect offline data from this DB (split-by-plan setting) and train.
	ds, err := expdata.Collect(e.w, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 6, ExecRepeats: 2, StatsSampleSize: 256, StatsBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	pairs := ds.Pairs(30, util.NewRNG(5))
	clf := models.NewClassifier(feat.Default(), models.RF(40, 7), expdata.DefaultAlpha)
	if err := clf.Train(pairs); err != nil {
		t.Fatal(err)
	}
	tn := New(e.w.Schema, e.whatIf, clf, Options{})
	cont := NewContinuous(tn, e.ex, ContinuousOpts{Iterations: 3, Seed: 15})
	trace, err := cont.TuneQueryContinuously(context.Background(), e.w.Query("q1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.FinalCost > (1+cont.Opts.Lambda)*trace.InitialCost {
		t.Fatalf("model-gated tuning ended regressed: %v -> %v", trace.InitialCost, trace.FinalCost)
	}
}

func TestContinuousWorkloadTuning(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{MaxNewIndexes: 3})
	cont := NewContinuous(tn, e.ex, ContinuousOpts{Iterations: 3, StopOnRegression: true, Seed: 17})
	qs := e.w.Queries[:5]
	trace, err := cont.TuneWorkloadContinuously(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.InitialCost <= 0 {
		t.Fatal("initial workload cost missing")
	}
	if trace.Improvement() < -0.25 {
		t.Fatalf("workload tuning ended badly regressed: %v", trace.Improvement())
	}
}
