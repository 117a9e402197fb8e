package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

// The databases are fixed fixtures: the workload seed draws traffic, never
// the problem size, so runs under different seeds tune the same schema and
// train on the same collection. dataSeed is the evaluation suite's default
// root seed and modelSeed fixes the served classifier.
const (
	dataSeed  = 20190701
	modelSeed = 1
	// fullScale sizes the databases of a measured run; smokeScale of the
	// -smoke run.
	fullScale  = 0.25
	smokeScale = 0.1
)

// servedDB builds cust9, the suite's second most join-heavy customer
// database (27 queries over 11 tables, up to 7 joins): cold tuning is bound
// by Optimize and join enumeration, yet a whole-workload job takes about a
// second and a half, so a run holds several cold jobs. These are the
// parameters workload.Suite uses for it.
func servedDB(scale float64) *workload.Workload {
	return workload.Customer("cust9", dataSeed+109, 3, scale*(0.4+0.35*8))
}

// sourceDBs are the learn workload's telemetry sources besides the served
// database: tpch10 and tpcds10 as workload.Suite builds them.
func sourceDBs(scale float64) []*workload.Workload {
	rows := func(base int) int { return max(int(float64(base)*scale), 20) }
	return []*workload.Workload{
		workload.TPCH("tpch10", rows(16000), dataSeed+1),
		workload.TPCDS("tpcds10", rows(12000), dataSeed+3),
	}
}

// fixture is everything a daemon is started from: the served database with
// its statistics and executor, the uploaded classifier, and (for learn)
// exported plan telemetry per source database.
type fixture struct {
	w     *workload.Workload
	stats *stats.DatabaseStats
	exec  *exec.Executor
	// blob is the serialized RF-100 classifier every daemon serves; clf is
	// the same blob decoded in-process, for re-deriving responses.
	blob []byte
	clf  *models.Classifier
	// telemetry maps a source database to its exported plan records, in
	// collection order; sources lists the databases in a fixed order.
	telemetry map[string][]expdata.PlanRecord
	sources   []string
}

// buildFixture generates the databases, opens statistics, collects
// execution data, and trains the classifier, recording each step as a span.
func buildFixture(tr *tracer, parent int64, scale float64, withTelemetry bool) (*fixture, error) {
	sp := tr.start("setup.data", parent, "")
	fx := &fixture{w: servedDB(scale)}
	if err := fx.w.Validate(); err != nil {
		return nil, err
	}
	var sources []*workload.Workload
	if withTelemetry {
		sources = sourceDBs(scale)
	}
	sp.end()

	sp = tr.start("setup.stats", parent, "")
	fx.stats = stats.BuildDatabaseStats(fx.w.DB, util.NewRNG(dataSeed).Split("stats"), stats.DefaultSampleSize, stats.DefaultBuckets)
	fx.exec = exec.New(fx.w.DB)
	sp.end()

	sp = tr.start("setup.collect", parent, "")
	data, err := expdata.Collect(fx.w, expdata.CollectOpts{Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	sets := []*expdata.Dataset{data}
	for _, w := range sources {
		ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: modelSeed})
		if err != nil {
			return nil, err
		}
		sets = append(sets, ds)
	}
	sp.end()

	sp = tr.start("setup.train", parent, "")
	clf := models.NewClassifier(feat.Default(), models.RF(100, modelSeed), expdata.DefaultAlpha)
	if err := clf.Train(data.Pairs(60, util.NewRNG(modelSeed).Split("pairs"))); err != nil {
		return nil, fmt.Errorf("training the served classifier: %w", err)
	}
	var buf bytes.Buffer
	if err := models.SaveClassifier(clf, &buf); err != nil {
		return nil, err
	}
	fx.blob = buf.Bytes()
	if fx.clf, err = models.LoadClassifier(bytes.NewReader(fx.blob)); err != nil {
		return nil, err
	}
	sp.end()

	if withTelemetry {
		sp = tr.start("setup.telemetry", parent, "")
		fx.telemetry = map[string][]expdata.PlanRecord{}
		for _, ds := range sets {
			recs := make([]expdata.PlanRecord, len(ds.Plans))
			for i, ep := range ds.Plans {
				recs[i] = expdata.ToRecord(ep, feat.DefaultChannels())
			}
			fx.telemetry[ds.DB] = recs
			fx.sources = append(fx.sources, ds.DB)
		}
		sp.end()
	}
	return fx, nil
}

// newWhatIf returns a fresh caching what-if facade over a fresh optimizer
// with the fixture's statistics: what a newly started daemon plans with.
func (fx *fixture) newWhatIf() *opt.WhatIf {
	return opt.NewWhatIf(opt.New(fx.w.Schema, fx.stats))
}

// daemon is one in-process instance of the serve daemon on a loopback port
// and the client that drives it.
type daemon struct {
	srv *server.Server
	wi  *opt.WhatIf
	cl  *client
}

// startDaemon starts the daemon with the settings `aimai serve` uses by
// default (what-if fan-out over GOMAXPROCS, one job worker, a queue of 8,
// 30 s request timeout) on a fresh optimizer; edit adjusts the rest.
func startDaemon(fx *fixture, edit func(*server.Config)) (*daemon, error) {
	wi := fx.newWhatIf()
	cfg := server.Config{
		Workload:       fx.w,
		WhatIf:         wi,
		Exec:           fx.exec,
		TunerOpts:      tuner.Options{Parallelism: 0},
		Workers:        1,
		QueueSize:      8,
		RequestTimeout: 30 * time.Second,
	}
	if edit != nil {
		edit(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, wi: wi, cl: newClient(addr)}, nil
}

// upload activates the fixture's classifier for a tenant ("" = default).
func (d *daemon) upload(fx *fixture, tenant string) error {
	path := "/v1/models"
	if tenant != "" {
		path = "/v1/t/" + tenant + "/models"
	}
	return d.cl.call("POST", path, fx.blob, 201, nil)
}

// stop shuts the daemon down gracefully and drops the client's connections.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.cl.close()
	return err
}
