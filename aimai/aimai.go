// Package aimai is the public facade of the AI-meets-AI reproduction: it
// bundles the database engine substrate (optimizer with what-if API,
// executor), the execution-data pipeline, the plan-pair cost classifier,
// and the classifier-gated index tuner behind a compact API.
//
// The typical flow mirrors the paper's architecture (§2.3):
//
//	w := aimai.TPCH("demo", 20000, 1)       // or TPCDS / Customer / Suite
//	sys, _ := aimai.Open(w, 1)              // optimizer + executor
//	data, _ := sys.CollectExecutionData(aimai.CollectOptions{})
//	clf, _ := aimai.TrainClassifier(data.Pairs(60, rng), aimai.ClassifierOptions{})
//	tn := sys.NewTuner(clf, aimai.TunerOptions{})
//	rec, _ := tn.TuneQuery(ctx, w.Queries[0], nil)
package aimai

import (
	"io"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/learn"
	"repro/internal/models"
	"repro/internal/obs"
	sqlparse "repro/internal/sql"
	"repro/internal/tenant"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

// Re-exported core types. These aliases are the stable public names for
// the library's building blocks.
type (
	// Workload bundles a schema, materialized data, and a query set.
	Workload = workload.Workload
	// Query is the logical query model.
	Query = query.Query
	// Plan is a physical plan annotated with optimizer estimates.
	Plan = plan.Plan
	// Actual is one operator's actual rows and measured cost in one
	// execution.
	Actual = exec.Actual
	// Index is an index definition (B+ tree or columnstore).
	Index = catalog.Index
	// Configuration is a set of indexes.
	Configuration = catalog.Configuration
	// Dataset is collected execution data for one database.
	Dataset = expdata.Dataset
	// Pair is an ordered plan pair of the same query.
	Pair = expdata.Pair
	// Label is the ternary pair class.
	Label = expdata.Label
	// Classifier is the plan-pair cost classifier.
	Classifier = models.Classifier
	// Comparator is anything that can compare two plans' execution cost.
	Comparator = models.Comparator
	// Recommendation is a query-level tuning outcome.
	Recommendation = tuner.Recommendation
	// QueryTrace traces continuous tuning of one query.
	QueryTrace = tuner.QueryTrace
	// RNG is the deterministic random stream used across the library.
	RNG = util.RNG
)

// Pair labels.
const (
	Improvement = expdata.Improvement
	Regression  = expdata.Regression
	Unsure      = expdata.Unsure
)

// DefaultAlpha is the significance threshold of §2.2.
const DefaultAlpha = expdata.DefaultAlpha

// NewRNG returns a deterministic random stream.
func NewRNG(seed int64) *RNG { return util.NewRNG(seed) }

// MetricsSnapshot is a point-in-time export of the library's metrics.
type MetricsSnapshot = obs.Snapshot

// MetricsServer is a running metrics HTTP endpoint; call Shutdown or Close
// to stop it and release its port.
type MetricsServer = obs.HTTPServer

// EnableMetrics turns on the library's internal metrics collection
// (counters, latency histograms, step traces across the what-if cache,
// tuner, executor, and model training). Collection is off by default and
// never changes results; see DESIGN.md §7.
func EnableMetrics() { obs.SetEnabled(true) }

// TakeMetricsSnapshot exports the current metrics as a JSON-serializable
// snapshot.
func TakeMetricsSnapshot() MetricsSnapshot { return obs.TakeSnapshot() }

// ServeMetrics serves the metrics snapshot as JSON over HTTP on addr
// (":0" binds an ephemeral port) and returns a server handle exposing the
// bound address; stop it with Shutdown/Close. It also enables collection.
func ServeMetrics(addr string) (*MetricsServer, error) {
	obs.SetEnabled(true)
	return obs.Serve(addr)
}

// TPCH builds the TPC-H-like workload (8 tables, 22 queries, skewed data).
func TPCH(name string, lineitemRows int, seed int64) *Workload {
	return workload.TPCH(name, lineitemRows, seed)
}

// TPCDS builds the TPC-DS-like workload (20 tables, ~50 queries).
func TPCDS(name string, storeSalesRows int, seed int64) *Workload {
	return workload.TPCDS(name, storeSalesRows, seed)
}

// Customer builds a synthetic customer workload at complexity 1..4.
func Customer(name string, seed int64, complexity int, scale float64) *Workload {
	return workload.Customer(name, seed, complexity, scale)
}

// Suite builds the full fifteen-database evaluation corpus.
func Suite(scale float64, seed int64) []*Workload {
	return workload.Suite(workload.Opts{Scale: scale, Seed: seed})
}

// System is one database opened for planning, execution, and tuning: the
// optimizer (with statistics built from a sample), the caching what-if
// facade, and the executor over the materialized data.
type System struct {
	Workload *Workload
	WhatIf   *opt.WhatIf
	Exec     *exec.Executor
	seed     int64
}

// Open builds statistics and wires the optimizer and executor for w.
func Open(w *Workload, seed int64) (*System, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(seed).Split("stats"), stats.DefaultSampleSize, stats.DefaultBuckets)
	return &System{
		Workload: w,
		WhatIf:   opt.NewWhatIf(opt.New(w.Schema, ds)),
		Exec:     exec.New(w.DB),
		seed:     seed,
	}, nil
}

// PlanQuery returns the optimizer's plan for q under cfg (nil = no
// indexes). cfg may be hypothetical: this is the what-if API.
func (s *System) PlanQuery(q *Query, cfg *Configuration) (*Plan, error) {
	return s.WhatIf.Plan(q, cfg)
}

// ExecutionResult is one measured execution.
type ExecutionResult struct {
	// Rows is the produced relation (column order per the plan).
	Rows [][]int64
	// Cost is the measured execution cost (the paper's CPU-time stand-in).
	Cost float64
	// Plan is the executed plan.
	Plan *Plan
	// Actuals are each operator's actual rows and measured cost, in the
	// pre-order of Plan.Root.Walk.
	Actuals []Actual
}

// Execute runs q under cfg and measures its execution cost.
func (s *System) Execute(q *Query, cfg *Configuration) (*ExecutionResult, error) {
	p, err := s.WhatIf.Plan(q, cfg)
	if err != nil {
		return nil, err
	}
	r, err := s.Exec.Execute(p, util.NewRNG(s.seed).Split("exec:"+q.Name))
	if err != nil {
		return nil, err
	}
	return &ExecutionResult{Rows: r.Rows, Cost: r.MeasuredCost, Plan: p, Actuals: r.Actuals}, nil
}

// CollectOptions configure execution-data collection; zero values use the
// defaults of §7.3 (three initial configurations, subsets of tuner
// candidate indexes, median-of-3 labels).
type CollectOptions = expdata.CollectOpts

// CollectExecutionData explores index configurations for every query and
// returns the labeled execution dataset.
func (s *System) CollectExecutionData(o CollectOptions) (*Dataset, error) {
	if o.Seed == 0 {
		o.Seed = s.seed
	}
	return expdata.Collect(s.Workload, o)
}

// ClassifierOptions configure TrainClassifier.
type ClassifierOptions struct {
	// Trees is the random-forest size (default 100).
	Trees int
	// Alpha is the significance threshold (default 0.2).
	Alpha float64
	// Seed drives training randomness.
	Seed int64
}

// TrainClassifier trains the paper's reference configuration: a random
// forest over EstNodeCost + LeafWeightEstBytesWeightedSum channels combined
// with pair_diff_normalized.
func TrainClassifier(pairs []Pair, o ClassifierOptions) (*Classifier, error) {
	if o.Trees <= 0 {
		o.Trees = 100
	}
	clf := models.NewClassifier(feat.Default(), models.RF(o.Trees, o.Seed), o.Alpha)
	if err := clf.Train(pairs); err != nil {
		return nil, err
	}
	return clf, nil
}

// TunerOptions configure the index tuner.
type TunerOptions = tuner.Options

// NewTuner wires an index tuner for this system. cmp may be nil for the
// classic estimate-only tuner, or a trained Classifier (or adaptive model)
// for the paper's gated tuner.
func (s *System) NewTuner(cmp Comparator, o TunerOptions) *tuner.Tuner {
	return tuner.New(s.Workload.Schema, s.WhatIf, cmp, o)
}

// ContinuousOptions configure continuous tuning.
type ContinuousOptions = tuner.ContinuousOpts

// NewContinuousTuner wires the measure/revert/collect loop of §7.9 around
// a tuner.
func (s *System) NewContinuousTuner(t *tuner.Tuner, o ContinuousOptions) *tuner.Continuous {
	if o.Seed == 0 {
		o.Seed = s.seed
	}
	return tuner.NewContinuous(t, s.Exec, o)
}

// EvaluateF1 scores a comparator on labeled pairs (regression-class F1,
// the paper's headline metric).
func EvaluateF1(c Comparator, pairs []Pair) float64 {
	return models.EvaluateF1(c, pairs, DefaultAlpha, Regression)
}

// OptimizerBaseline returns the estimate-only comparator (the
// state-of-the-art tuner's behaviour) for comparison.
func OptimizerBaseline() Comparator {
	return models.NewOptimizerBaseline(DefaultAlpha)
}

// ParseSQL parses a SELECT statement in the engine's dialect against the
// workload's schema. The dialect matches Query.SQL() exactly (qualified or
// resolvable columns, conjunctive comparisons/BETWEEN, equijoins in WHERE,
// GROUP BY / ORDER BY [DESC] / LIMIT, aggregates COUNT/SUM/MIN/MAX/AVG).
func (s *System) ParseSQL(text string) (*Query, error) {
	return sqlparse.Parse(text, s.Workload.Schema)
}

// SaveClassifier serializes a trained RF-based classifier (featurization
// recipe + forest) to w — the deployable model artifact of §2.3.
func SaveClassifier(c *Classifier, w io.Writer) error {
	return models.SaveClassifier(c, w)
}

// LoadClassifier reads a classifier written by SaveClassifier.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	return models.LoadClassifier(r)
}

// PlanRecord is the telemetry form of an executed plan (featurized
// channels + costs); see ExportTelemetry.
type PlanRecord = expdata.PlanRecord

// ExportTelemetry writes a dataset as JSON-lines plan records: what a
// database emits to the cloud pipeline (§2.3). Raw plans never leave the
// database.
func ExportTelemetry(w io.Writer, ds *Dataset) error {
	return expdata.ExportTelemetry(w, ds, feat.DefaultChannels())
}

// ImportTelemetry reads JSON-lines plan records.
func ImportTelemetry(r io.Reader) ([]PlanRecord, error) {
	return expdata.ImportTelemetry(r)
}

// TrainClassifierFromTelemetry trains the reference RF classifier purely
// from telemetry records (no plan objects needed). The records are paired
// by the serve daemon's own rule (learn.Compact, without a recency
// window): records with bad costs or malformed channels are skipped,
// duplicates of one plan keep the freshest measurement, and records of
// the same (database, query) are paired, at most 60 pairs each, labeled
// by measured cost at α.
func TrainClassifierFromTelemetry(recs []PlanRecord, o ClassifierOptions) (*Classifier, error) {
	if o.Trees <= 0 {
		o.Trees = 100
	}
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	f := feat.Default()
	set := learn.Compact(recs, f, learn.Options{Alpha: o.Alpha, Window: -1, MaxPairsPerTemplate: 60})
	clf := models.NewClassifier(f, models.RF(o.Trees, o.Seed), o.Alpha)
	if err := clf.TrainVectors(set.X, set.Y); err != nil {
		return nil, err
	}
	return clf, nil
}

// LearnOptions configure one online-learning cycle; see the learn package
// for field semantics. The zero value uses conservative defaults.
type LearnOptions = learn.Options

// LearnReport is the outcome of one learning cycle: compaction stats,
// shadow-evaluation scores, and the promotion decision.
type LearnReport = learn.CycleReport

// LearnFromTelemetry runs one offline learning cycle — the serve daemon's
// compaction → training → shadow-evaluation → promotion-gate pipeline —
// over telemetry records, against an optional current champion. It returns
// the cycle report plus the challenger classifier when it passed the
// promotion gate (nil when the cycle rejected or skipped).
func LearnFromTelemetry(recs []PlanRecord, champion *Classifier, o LearnOptions) (*LearnReport, *Classifier, error) {
	return learn.RunOnce(recs, champion, o)
}

// DefaultTenant is the tenant every serve-daemon request without an
// explicit tenant resolves to; it preserves single-tenant behaviour and
// the pre-multi-tenant on-disk layout.
const DefaultTenant = tenant.DefaultID

// ValidateTenantID checks an identifier against the serving plane's tenant
// grammar (1-64 chars of [a-z0-9] plus non-leading '-' and '_'). IDs are
// used verbatim as directory components under the tenants data root, so
// the grammar admits nothing that could traverse or alias paths.
func ValidateTenantID(id string) error { return tenant.ValidateID(id) }
