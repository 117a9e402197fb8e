package repro_test

// Root benchmark harness: one Benchmark per table and figure of the
// paper's evaluation, plus micro-benchmarks for the engine's hot paths.
//
// Environment knobs:
//
//	AIMAI_SCALE  workload scale factor (default 0.08 for benches)
//	AIMAI_FULL   set to 1 to disable Quick mode (full repeats/models)
//
// Each experiment benchmark builds (once, shared) the fifteen-database
// corpus, regenerates its table, and logs it; wall time of the experiment
// is the benchmark result.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/aimai"
	"repro/internal/candidates"
	"repro/internal/embed"
	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/experiments"
	"repro/internal/feat"
	"repro/internal/learn"
	"repro/internal/ml/forest"
	"repro/internal/ml/tree"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/server/registry"
	"repro/internal/telemetry"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		scale := 0.08
		if s := os.Getenv("AIMAI_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		quick := os.Getenv("AIMAI_FULL") == ""
		envVal, envErr = experiments.NewEnv(experiments.Config{Scale: scale, Quick: quick})
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// benchExperiment regenerates one experiment per iteration and logs the
// resulting table once.
func benchExperiment(b *testing.B, id string) {
	env := benchEnv(b)
	run := experiments.Registry()[id]
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := run(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "figure1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "figure7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "figure13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "figure14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "figure15") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)   { benchExperiment(b, "table6") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationTrees(b *testing.B) { benchExperiment(b, "ablation-trees") }
func BenchmarkAblationAlpha(b *testing.B) { benchExperiment(b, "ablation-alpha") }

// Micro-benchmarks for the substrate's hot paths.

func microWorkload() (*workload.Workload, *opt.Optimizer, *exec.Executor) {
	w := workload.TPCH("bench-micro", 8000, 3)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), stats.DefaultSampleSize, stats.DefaultBuckets)
	return w, opt.New(w.Schema, ds), exec.New(w.DB)
}

func BenchmarkOptimizerPlan(b *testing.B) {
	w, o, _ := microWorkload()
	q := w.Query("q5") // 6-way join: the heaviest planning case
	cfg := catalog.NewConfiguration(
		&catalog.Index{Table: "lineitem", KeyColumns: []string{"l_order"}},
		&catalog.Index{Table: "orders", KeyColumns: []string{"o_cust"}},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorRun(b *testing.B) {
	w, o, ex := microWorkload()
	q := w.Query("q6")
	p, err := o.Optimize(q, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := util.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhatIfCachedPlan(b *testing.B) {
	w, o, _ := microWorkload()
	wi := opt.NewWhatIf(o)
	q := w.Query("q3")
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "orders", KeyColumns: []string{"o_date"}})
	if _, err := wi.Plan(q, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wi.Plan(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairFeaturization(b *testing.B) {
	w, o, _ := microWorkload()
	q := w.Query("q3")
	p1, _ := o.Optimize(q, nil)
	p2, _ := o.Optimize(q, catalog.NewConfiguration(&catalog.Index{Table: "orders", KeyColumns: []string{"o_date"}}))
	f := feat.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Pair(p1, p2)
	}
}

func BenchmarkClassifierTrain(b *testing.B) {
	w := workload.TPCH("bench-train", 2500, 7)
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 8, ExecRepeats: 2})
	if err != nil {
		b.Fatal(err)
	}
	pairs := ds.Pairs(40, util.NewRNG(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := models.NewClassifier(feat.Default(), models.RF(100, int64(i)), expdata.DefaultAlpha)
		if err := clf.Train(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchData collects the TPC-H execution data the classifier and
// telemetry benchmarks share.
func benchData(b *testing.B) *expdata.Dataset {
	b.Helper()
	w := workload.TPCH("bench-infer", 2500, 7)
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 8, ExecRepeats: 2})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// benchPairs returns the labeled TPC-H plan pairs the classifier
// benchmarks train on.
func benchPairs(b *testing.B) []expdata.Pair {
	b.Helper()
	return benchData(b).Pairs(40, util.NewRNG(9))
}

// benchClassifier trains the RF-100 plan-pair classifier the inference
// and gated-tuning benchmarks share, returning it with its training pairs.
func benchClassifier(b *testing.B) (*models.Classifier, []expdata.Pair) {
	b.Helper()
	pairs := benchPairs(b)
	clf := models.NewClassifier(feat.Default(), models.RF(100, 1), expdata.DefaultAlpha)
	if err := clf.Train(pairs); err != nil {
		b.Fatal(err)
	}
	return clf, pairs
}

func BenchmarkClassifierInference(b *testing.B) {
	clf, pairs := benchClassifier(b)
	p := pairs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Compare(p.P1.Plan, p.P2.Plan)
	}
}

// BenchmarkTuneQuery measures one query-level search. Like
// benchTuneWorkload it rebuilds the what-if cache per iteration over a
// shared optimizer, so every iteration pays for its probes rather than
// replaying cache hits.
func BenchmarkTuneQuery(b *testing.B) {
	w := workload.TPCH("bench-tune", 5000, 7)
	sys, err := aimai.Open(w, 7)
	if err != nil {
		b.Fatal(err)
	}
	q := w.Query("q3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn := tuner.New(w.Schema, opt.NewWhatIf(sys.WhatIf.Opt), nil, tuner.Options{})
		if _, err := tn.TuneQuery(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTuneWorkload measures a full workload-level search at a given
// what-if parallelism. The what-if cache is rebuilt per iteration so every
// iteration pays for its probes (a warm cache would hide the fan-out).
//
// Probing is CPU-bound in the planner, so the Parallel4/Serial ratio
// tracks physical cores: ~parity on a single-core host (the pool adds no
// overhead), approaching 4x with >= 4 cores.
func benchTuneWorkload(b *testing.B, parallelism int, cmp models.Comparator) {
	w := workload.TPCH("bench-tunew", 5000, 7)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), stats.DefaultSampleSize, stats.DefaultBuckets)
	o := opt.New(w.Schema, ds)
	qs := w.Queries[:12]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn := tuner.New(w.Schema, opt.NewWhatIf(o), cmp, tuner.Options{Parallelism: parallelism})
		if _, err := tn.TuneWorkload(context.Background(), qs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneWorkloadSerial(b *testing.B)    { benchTuneWorkload(b, 1, nil) }
func BenchmarkTuneWorkloadParallel4(b *testing.B) { benchTuneWorkload(b, 4, nil) }

// BenchmarkTuneWorkloadGated is TuneWorkloadSerial with the RF-100
// classifier gating every probe, so it times the classifier gate.
func BenchmarkTuneWorkloadGated(b *testing.B) {
	clf, _ := benchClassifier(b)
	benchTuneWorkload(b, 1, clf)
}

// BenchmarkCandidateGen measures the role-classified candidate generator
// on the composite workload's full query mix — the per-query cost the
// tuner pays before any what-if probe.
func BenchmarkCandidateGen(b *testing.B) {
	w := workload.Composite("bench-cands", 4000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range w.Queries {
			if len(candidates.CandidateIndexes(q, w.Schema)) == 0 {
				b.Fatalf("%s: no candidates", q.Name)
			}
		}
	}
}

// BenchmarkTuneWorkloadCompressed tunes a duplicate-heavy trace (6 renamed
// copies per template) with workload compression on. Compare against
// BenchmarkTuneWorkloadSerial for the probe savings compression buys.
func BenchmarkTuneWorkloadCompressed(b *testing.B) {
	w := workload.Composite("bench-tunec", 4000, 7)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), stats.DefaultSampleSize, stats.DefaultBuckets)
	o := opt.New(w.Schema, ds)
	qs := workload.Replicate(w.Queries, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn := tuner.New(w.Schema, opt.NewWhatIf(o), nil, tuner.Options{Parallelism: 1, Compress: true})
		if _, err := tn.TuneWorkload(context.Background(), qs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneWorkloadSerialMetricsOn is the metrics-enabled companion of
// BenchmarkTuneWorkloadSerial: the delta between the two is the live cost
// of the observability layer (TestObsDisabledOverheadBudget bounds the
// disabled cost).
func BenchmarkTuneWorkloadSerialMetricsOn(b *testing.B) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	benchTuneWorkload(b, 1, nil)
}

// synthTrainingData builds a deterministic matrix shaped like the learn
// loop's pair features: PairDim columns mixing tie-heavy discrete values
// (sparse pair-diff channels) with continuous ones, three cost labels.
func synthTrainingData(n int, seed int64) ([][]float64, []int) {
	d := feat.Default().PairDim()
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			if j%3 == 0 {
				row[j] = float64(rng.Intn(5))
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		X[i] = row
		s := row[1] + 0.5*row[4] + 0.25*float64(rng.Intn(3))
		switch {
		case s < -0.4:
			y[i] = 0
		case s < 0.6:
			y[i] = 1
		default:
			y[i] = 2
		}
	}
	return X, y
}

// BenchmarkTreeFit measures a single full-feature decision-tree fit — the
// unit of work every forest tree and GBT round pays.
func BenchmarkTreeFit(b *testing.B) {
	X, y := synthTrainingData(2000, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tree.New(tree.Config{MinLeaf: 1, ImpurityThreshold: 1e-6})
		if err := tr.FitClassifier(X, y, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrain measures a challenger-sized random-forest fit (the
// learn loop's per-cycle training cost) at default parallelism.
func BenchmarkForestTrain(b *testing.B) {
	X, y := synthTrainingData(600, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.NewClassifier(forest.Config{Trees: 60, MinLeaf: 1, ImpurityThreshold: 1e-6, Seed: 7})
		if err := f.Fit(X, y, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrainPairs is BenchmarkForestTrain on featurized plan
// pairs: the learn loop's 60-tree challenger over the pair vectors
// benchClassifier trains on. Unlike the synthetic matrix, these hold
// constant and tie-heavy attributes beside continuous ones.
func BenchmarkForestTrainPairs(b *testing.B) {
	clf := models.NewClassifier(feat.Default(), nil, expdata.DefaultAlpha)
	X, y := clf.Vectorize(benchPairs(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.NewClassifier(forest.Config{Trees: 60, MinLeaf: 1, ImpurityThreshold: 1e-6, Seed: 7})
		if err := f.Fit(X, y, expdata.NumLabels); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTelemetry emits synthetic learn-loop telemetry: templates x 5
// records whose measured cost equals the channel mass.
func benchTelemetry(templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	var fp uint64
	for t := 0; t < templates; t++ {
		for _, m := range []float64{100, 200, 400, 800, 820} {
			fp++
			out = append(out, expdata.PlanRecord{
				DB:           "db",
				Query:        fmt.Sprintf("q%02d", t),
				TemplateHash: uint64(1000 + t),
				Fingerprint:  fp,
				Cost:         m,
				EstTotalCost: m,
				Channels: map[string][]float64{
					"EstNodeCost":                   {m},
					"LeafWeightEstBytesWeightedSum": {m / 2},
				},
			})
		}
	}
	return out
}

// BenchmarkLearnCycle measures a full dry-run learn cycle on a steady
// telemetry window: compaction + featurization + challenger training +
// shadow eval, end to end.
func BenchmarkLearnCycle(b *testing.B) {
	recs := benchTelemetry(24)
	reg, err := registry.Open("")
	if err != nil {
		b.Fatal(err)
	}
	loop := learn.NewLoop(reg, func() ([]expdata.PlanRecord, int64) {
		return recs, int64(len(recs))
	}, 0, learn.Options{Seed: 3, Trees: 40, DryRun: true})
	defer loop.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.RunCycle(context.Background(), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetrySnapshot measures the telemetry read that opens every
// learn cycle: Snapshot of a disk-backed sink shaped like a tenant of the
// end-to-end learn workload (256 KiB segments, the default four), filled
// with featurized TPC-H telemetry until rotation has dropped a segment.
func BenchmarkTelemetrySnapshot(b *testing.B) {
	ds := benchData(b)
	recs := make([]expdata.PlanRecord, len(ds.Plans))
	for i, ep := range ds.Plans {
		recs[i] = expdata.ToRecord(ep, feat.DefaultChannels())
	}
	sink, err := telemetry.Open(telemetry.Opts{
		Path:         filepath.Join(b.TempDir(), "telemetry.jsonl"),
		SegmentBytes: 256 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	for {
		if _, err := sink.Append(recs); err != nil {
			b.Fatal(err)
		}
		if window, total := sink.Snapshot(); int64(len(window)) < total {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if window, _ := sink.Snapshot(); len(window) == 0 {
			b.Fatal("empty telemetry window")
		}
	}
}

// BenchmarkEmbedPlan measures one plan-embedding forward pass — the
// per-record cost the embedding drift detector pays inside each cycle.
func BenchmarkEmbedPlan(b *testing.B) {
	recs := benchTelemetry(24)
	channels := feat.DefaultChannels()
	samples := embed.RecordSamples(recs, channels)
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = embed.PlanInput(channels, s.Vectors, s.Est)
	}
	enc, err := embed.Train(inputs, embed.Config{Epochs: 10, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	s := &samples[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := enc.EmbedPlan(s.Vectors, s.Est); len(out) == 0 {
			b.Fatal("empty embedding")
		}
	}
}

// BenchmarkWorkloadEmbed measures pooling a full telemetry window into a
// workload embedding (featurization + forward passes + moment pooling).
func BenchmarkWorkloadEmbed(b *testing.B) {
	recs := benchTelemetry(24)
	channels := feat.DefaultChannels()
	samples := embed.RecordSamples(recs, channels)
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = embed.PlanInput(channels, s.Vectors, s.Est)
	}
	enc, err := embed.Train(inputs, embed.Config{Epochs: 10, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if we := enc.Workload(samples); we == nil {
			b.Fatal("empty workload embedding")
		}
	}
}

func BenchmarkCollectExecutionData(b *testing.B) {
	w := workload.TPCH("bench-collect", 2000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expdata.Collect(w, expdata.CollectOpts{Seed: int64(i), MaxConfigsPerQuery: 6, ExecRepeats: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
