// Command aimai drives the reproduction: it regenerates the paper's tables
// and figures, runs the index tuner on suite databases, and inspects the
// generated workloads.
//
// Usage:
//
//	aimai list
//	aimai run [-scale 0.25] [-seed N] [-quick] [-parallel N] [-dbs a,b,c]
//	    [-out file] [-metrics-addr :9090] [-pprof] <experiment|all>
//	aimai tune [-db tpch10] [-scale 0.1] [-seed N] [-query q6] [-model rf|none]
//	    [-iters 5] [-parallel N] [-metrics-addr :9090] [-pprof]
//	aimai serve [-addr :8080] [-db tpch10] [-scale 0.1] [-seed N] [-parallel N]
//	    [-models-dir dir] [-registry-keep N] [-telemetry file]
//	    [-telemetry-segment-bytes N] [-telemetry-segments N]
//	    [-learn-interval 30s] [-learn-train-parallel N] [-drift-mode z|embed|both]
//	    [-tenants-dir dir] [-tenants-max-active N] [-tenant-rate R] [-tenant-burst N]
//	    [-tenant-weights a=3,b=1] [-tenant-ingest-rate R] [-warm-start-floor 0.8]
//	    [-workers N] [-queue N] [-request-timeout 30s] [-drain-timeout 30s]
//	aimai learn [-models-dir dir] [-registry-keep N] [-seed N] [-train-parallel N]
//	    [-drift-mode z|embed|both] [-dry-run] telemetry.jsonl...
//	aimai embed [-models-dir dir] [-seed N] telemetry.jsonl...
//	aimai sql [-db tpch10] [-scale 0.1] [-seed N] [-explain] [-limit 20] "SELECT ..."
//	aimai workloads [-scale 0.25] [-seed N] [-sql]
//
// serve -seed also seeds the learning loop, and learn runs one cycle under
// the same learn settings as the daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/aimai"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// startMetrics enables the process-global metrics registry and, when addr is
// nonempty, serves its JSON snapshot over HTTP (":0" binds an ephemeral
// port, printed for scraping). The returned server (nil when addr is empty)
// should be shut down before exit to release the port.
func startMetrics(addr string, withPprof bool) (*obs.HTTPServer, error) {
	obs.SetEnabled(true)
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.ServeWith(addr, obs.ServeOptions{Pprof: withPprof})
	if err != nil {
		return nil, err
	}
	fmt.Printf("metrics: serving JSON snapshot on http://%s/metrics\n", srv.Addr())
	if withPprof {
		fmt.Printf("metrics: pprof profiles on http://%s/debug/pprof/\n", srv.Addr())
	}
	return srv, nil
}

// printMetricsSummary prints the headline counters of a tuning run.
func printMetricsSummary() {
	s := obs.TakeSnapshot()
	hit, miss, wait := s.Counters["whatif.cache.hit"], s.Counters["whatif.cache.miss"], s.Counters["whatif.cache.wait"]
	fmt.Printf("\nmetrics: what-if probes %d (cache hits %d, waits %d)", miss, hit, wait)
	if h, ok := s.Histograms["whatif.probe.latency"]; ok && h.Count > 0 {
		fmt.Printf("; probe p50 %.3fms p99 %.3fms", 1e3*h.P50, 1e3*h.P99)
	}
	// Greedy probes per step: each query-level step plans every eligible
	// candidate once; a workload-level step re-plans only the queries the
	// candidate is relevant to (opt.Optimizer.Relevant).
	if h := s.Histograms["tuner.step.candidates"]; h.Count > 0 {
		fmt.Printf("\nmetrics: query greedy steps %d, what-if calls %.0f (%.1f per step)", h.Count, h.Sum, h.Mean)
	}
	if gc, gm := s.Counters["tuner.greedy.whatif.calls"], s.Counters["tuner.greedy.whatif.misses"]; gc > 0 {
		steps := s.Histograms["tuner.workload.step.candidates"].Count
		fmt.Printf("\nmetrics: workload greedy steps %d, what-if calls %d, misses %d", steps, gc, gm)
	}
	if gen, drop := s.Counters["candidates.generated"], s.Counters["candidates.dropped"]; gen+drop > 0 {
		fmt.Printf("\nmetrics: candidates generated %d, dropped by budgets %d", gen, drop)
	}
	if in, out := s.Counters["tuner.compress.queries"], s.Counters["tuner.compress.representatives"]; in > 0 {
		fmt.Printf("\nmetrics: workload compression %d queries -> %d representatives", in, out)
	}
	fmt.Printf("\nmetrics: gate verdicts regression=%d improvement=%d unsure=%d; continuous accept=%d revert=%d\n",
		s.Counters["tuner.gate.regression"], s.Counters["tuner.gate.improvement"], s.Counters["tuner.gate.unsure"],
		s.Counters["tuner.cont.accept"], s.Counters["tuner.cont.revert"])
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "learn":
		err = cmdLearn(os.Args[2:])
	case "embed":
		err = cmdEmbed(os.Args[2:])
	case "workloads":
		err = cmdWorkloads(os.Args[2:])
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `aimai — "AI Meets AI" (SIGMOD 2019) reproduction

commands:
  list        list the reproducible experiments (paper tables/figures)
  run         regenerate one experiment or "all"
  tune        tune a query of a suite database with/without the classifier
  serve       run the tuning service daemon (JSON HTTP API, async jobs)
  learn       run one offline learning cycle over telemetry JSONL files
  embed       embed a telemetry workload (train or reuse a plan encoder)
  sql         run an ad-hoc SQL query against a suite database
  workloads   print workload statistics (and optionally query SQL)`)
}

func cmdList() error {
	reg := experiments.Registry()
	ids := experiments.Order()
	fmt.Println("experiments (in paper order):")
	for _, id := range ids {
		if reg[id] != nil {
			fmt.Println("  " + id)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scale := fs.Float64("scale", 0.25, "workload scale factor")
	seed := fs.Int64("seed", 20190630, "root seed")
	quick := fs.Bool("quick", false, "reduced repeats and model sizes")
	dbs := fs.String("dbs", "", "comma-separated database subset (default all 15)")
	out := fs.String("out", "", "also write results to this file (plus a metrics sidecar)")
	parallel := fs.Int("parallel", 0, "tuner what-if worker pool (0 = GOMAXPROCS, 1 = serial; results identical)")
	metricsAddr := fs.String("metrics-addr", "", "serve a JSON metrics snapshot on this address (e.g. :9090 or :0)")
	withPprof := fs.Bool("pprof", false, "also mount net/http/pprof on the -metrics-addr listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metricsAddr != "" || *out != "" {
		msrv, err := startMetrics(*metricsAddr, *withPprof)
		if err != nil {
			return err
		}
		if msrv != nil {
			defer msrv.Close()
		}
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs exactly one experiment id or 'all'")
	}
	target := fs.Arg(0)
	reg := experiments.Registry()
	var ids []string
	if target == "all" {
		ids = experiments.Order()
	} else if reg[target] != nil {
		ids = []string{target}
	} else {
		return fmt.Errorf("unknown experiment %q (see 'aimai list')", target)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Quick: *quick, Parallelism: *parallel}
	if *dbs != "" {
		cfg.Databases = strings.Split(*dbs, ",")
	}
	fmt.Printf("building corpus (scale=%.2f, quick=%v)...\n", *scale, *quick)
	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("corpus ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	var sink *os.File
	if *out != "" {
		sink, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer sink.Close()
	}
	for _, id := range ids {
		t0 := time.Now()
		tab, err := reg[id](env)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		text := tab.String()
		fmt.Printf("%s(%v)\n\n", text, time.Since(t0).Round(time.Millisecond))
		if sink != nil {
			fmt.Fprintf(sink, "%s\n", text)
		}
	}
	if *out != "" {
		side, err := experiments.WriteMetricsSidecar(*out)
		if err != nil {
			return err
		}
		fmt.Printf("metrics sidecar written to %s\n", side)
	}
	return nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	db := fs.String("db", "tpch10", "suite database name")
	scale := fs.Float64("scale", 0.1, "workload scale factor")
	queryName := fs.String("query", "", "query to tune (default: all, summary only)")
	model := fs.String("model", "rf", "comparator: rf (classifier) or none (estimate-only)")
	iters := fs.Int("iters", 5, "continuous tuning iterations")
	seed := fs.Int64("seed", 1, "seed")
	parallel := fs.Int("parallel", 0, "tuner what-if worker pool (0 = GOMAXPROCS, 1 = serial; results identical)")
	metricsAddr := fs.String("metrics-addr", "", "serve a JSON metrics snapshot on this address (e.g. :9090 or :0)")
	withPprof := fs.Bool("pprof", false, "also mount net/http/pprof on the -metrics-addr listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("tune: unexpected argument %q (name one query with -query)", fs.Arg(0))
	}
	if *metricsAddr != "" {
		msrv, err := startMetrics(*metricsAddr, *withPprof)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}
	var w *aimai.Workload
	for _, cand := range aimai.Suite(*scale, *seed) {
		if cand.Name == *db {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown database %q", *db)
	}
	sys, err := aimai.Open(w, *seed)
	if err != nil {
		return err
	}
	var cmp aimai.Comparator
	if *model == "rf" {
		fmt.Println("collecting execution data and training the classifier...")
		data, err := sys.CollectExecutionData(aimai.CollectOptions{})
		if err != nil {
			return err
		}
		clf, err := aimai.TrainClassifier(data.Pairs(60, aimai.NewRNG(*seed)), aimai.ClassifierOptions{Seed: *seed})
		if err != nil {
			return err
		}
		cmp = clf
	}
	tn := sys.NewTuner(cmp, aimai.TunerOptions{Parallelism: *parallel})
	cont := sys.NewContinuousTuner(tn, aimai.ContinuousOptions{Iterations: *iters, StopOnRegression: cmp == nil})

	var qs []string
	if *queryName != "" {
		qs = []string{*queryName}
	} else {
		for _, q := range w.Queries {
			qs = append(qs, q.Name)
		}
		sort.Strings(qs)
	}
	fmt.Printf("%-8s %12s %12s %10s %s\n", "query", "initial", "final", "change", "status")
	for _, name := range qs {
		q := w.Query(name)
		if q == nil {
			return fmt.Errorf("unknown query %q", name)
		}
		trace, err := cont.TuneQueryContinuously(context.Background(), q, nil)
		if err != nil {
			return err
		}
		status := "unchanged"
		switch {
		case trace.RegressedFinal:
			status = "REGRESSED (reverted)"
		case trace.Improved(0.2):
			status = "improved"
		}
		fmt.Printf("%-8s %12.1f %12.1f %9.1f%% %s\n",
			name, trace.InitialCost, trace.FinalCost,
			100*(1-trace.FinalCost/trace.InitialCost), status)
		if *queryName != "" {
			fmt.Println("\nfinal configuration:")
			for _, ix := range trace.FinalConfig.Indexes() {
				fmt.Println("  " + ix.ID())
			}
		}
	}
	if *metricsAddr != "" {
		printMetricsSummary()
	}
	return nil
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	db := fs.String("db", "tpch10", "suite database name")
	scale := fs.Float64("scale", 0.1, "workload scale factor")
	explain := fs.Bool("explain", false, "print the optimizer plan instead of rows")
	limit := fs.Int("limit", 20, "max rows printed")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sql needs exactly one quoted SELECT statement")
	}
	var w *aimai.Workload
	for _, cand := range aimai.Suite(*scale, *seed) {
		if cand.Name == *db {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown database %q", *db)
	}
	sys, err := aimai.Open(w, *seed)
	if err != nil {
		return err
	}
	q, err := sys.ParseSQL(fs.Arg(0))
	if err != nil {
		return err
	}
	q.Name = "adhoc"
	if *explain {
		p, err := sys.PlanQuery(q, nil)
		if err != nil {
			return err
		}
		fmt.Print(p)
		return nil
	}
	res, err := sys.Execute(q, nil)
	if err != nil {
		return err
	}
	for i := range res.Rows {
		if i >= *limit {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-*limit)
			break
		}
		var cells []string
		for _, v := range res.Rows[i] {
			cells = append(cells, fmt.Sprint(v))
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("(%d rows, measured cost %.1f)\n", len(res.Rows), res.Cost)
	return nil
}

func cmdWorkloads(args []string) error {
	fs := flag.NewFlagSet("workloads", flag.ExitOnError)
	scale := fs.Float64("scale", 0.25, "workload scale factor")
	seed := fs.Int64("seed", 20190630, "seed")
	sql := fs.Bool("sql", false, "print each query's SQL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("workloads: unexpected argument %q", fs.Arg(0))
	}
	fmt.Printf("%-10s %10s %8s %9s %10s %10s\n", "workload", "size (MB)", "#tables", "#queries", "avg joins", "max joins")
	for _, w := range aimai.Suite(*scale, *seed) {
		st := w.ComputeStats()
		fmt.Printf("%-10s %10.1f %8d %9d %10.1f %10d\n",
			st.Name, st.SizeMB, st.Tables, st.Queries, st.AvgJoins, st.MaxJoins)
		if *sql {
			for _, q := range w.Queries {
				fmt.Printf("  %s: %s\n", q.Name, q.SQL())
			}
		}
	}
	return nil
}
