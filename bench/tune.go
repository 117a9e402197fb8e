package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/query"
	"repro/internal/obs"
	"repro/internal/tuner"
	"repro/internal/util"
)

const whyTune = "fresh-daemon sessions of a cold whole-workload tune job and nine cached re-tunes: cold jobs are bound by Optimize and join enumeration, re-tunes by the classifier gate; learn is bypassed"

const (
	// regressionAlpha is the paper's α: a query regresses when its measured
	// cost rises by more than this share under the recommendation.
	regressionAlpha = 0.2
	// defaultMaxNew is the tuner's MaxNewIndexes default, the cold job's
	// index budget.
	defaultMaxNew = 5
)

// tuneReq is the body of POST /v1/jobs/tune: every job tunes the whole
// workload.
type tuneReq struct {
	MaxNewIndexes     int     `json:"max_new_indexes,omitempty"`
	MaxColumnFraction float64 `json:"max_column_fraction,omitempty"`
}

// jobStatus is the daemon's job JSON.
type jobStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
}

// tuneResult is a finished job's result.
type tuneResult struct {
	NewIndexes []string `json:"new_indexes"`
	EstCost    float64  `json:"est_cost"`
}

// tuneJob is one submitted job and what the client saw.
type tuneJob struct {
	cold    bool
	req     tuneReq
	sent    time.Time
	status  jobStatus
	result  tuneResult
	err     error
	session int
}

// latencyS is the time from sending the submit to the job's finished_at;
// polling only discovers completion, so its interval does not enter.
func (j *tuneJob) latencyS() float64 {
	if j.err != nil || j.status.FinishedAt == nil {
		return inf
	}
	return j.status.FinishedAt.Sub(j.sent).Seconds()
}

// runJob submits a tune job and polls until it is terminal.
func runJob(tr *tracer, c *client, j *tuneJob, parent int64) {
	body, _ := json.Marshal(j.req) // strings and numbers: cannot fail
	sp := tr.start("client.tune_job", parent, "")
	defer sp.end()
	j.sent = time.Now()
	var st jobStatus
	if j.err = c.call("POST", "/v1/jobs/tune", body, 202, &st); j.err != nil {
		return
	}
	for wait := time.Millisecond; ; wait = min(2*wait, 20*time.Millisecond) {
		time.Sleep(wait)
		if j.err = c.call("GET", "/v1/jobs/"+st.ID, nil, 200, &j.status); j.err != nil {
			return
		}
		if j.status.State == "done" || j.status.State == "failed" || j.status.State == "cancelled" {
			break
		}
	}
	if j.status.State != "done" {
		j.err = fmt.Errorf("job %s %s: %s", st.ID, j.status.State, j.status.Error)
		return
	}
	j.err = json.Unmarshal(j.status.Result, &j.result)
}

// retunes is the battery of re-tunes that follows every cold job: the
// whole workload under each index budget from {3, 4, 5} crossed with each
// %-of-columns budget from {0, 5%, 10%}. Budgets at or below the cold job's
// keep every probe inside the space the cold job explored, so a re-tune is
// answered from the what-if cache and bound by the classifier gate. Every
// session runs the same battery, in a seed-drawn order, so sessions do the
// same work under every seed.
func retunes(rng *util.RNG) []tuneReq {
	var out []tuneReq
	for _, n := range []int{3, 4, 5} {
		for _, f := range []float64{0, 0.05, 0.1} {
			out = append(out, tuneReq{MaxNewIndexes: n, MaxColumnFraction: f})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tuneState is one set-up of the tune workload: the fixture and a started
// daemon serving the uploaded model.
type tuneState struct {
	fx *fixture
	d  *daemon
}

func startTuneDaemon(fx *fixture) (*daemon, error) {
	d, err := startDaemon(fx, nil)
	if err != nil {
		return nil, err
	}
	if err := d.upload(fx, ""); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func runTune(e *env) (*outcome, error) {
	build := func(parent int64) (*tuneState, error) {
		fx, err := buildFixture(e.tr, parent, e.scale, false)
		if err != nil {
			return nil, err
		}
		sp := e.tr.start("setup.server", parent, "")
		defer sp.end()
		d, err := startTuneDaemon(fx)
		if err != nil {
			return nil, err
		}
		return &tuneState{fx: fx, d: d}, nil
	}
	st, setupS, err := timeSetups(e, build, func(s *tuneState) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.e2e["setup_s"] = setupS
	fx := st.fx

	// Timed phase: whole sessions until the deadline. Each session is a
	// fresh daemon — a new optimizer and what-if cache over the same
	// statistics and model — so every cold job starts cold; the live heap is
	// sampled right after it. A traced run records client spans in every
	// other session, so the two halves give the tracing overhead.
	rng := util.NewRNG(e.seed).Split("tune")
	deadline := e.deadline(1)
	var jobs []*tuneJob
	var heaps []float64
	d := st.d
	for s := 0; time.Now().Before(deadline); s++ {
		if s > 0 {
			if d, err = startTuneDaemon(fx); err != nil {
				return nil, err
			}
		}
		tr := e.tr
		if s%2 == 1 {
			tr = newTracer(false)
		}
		sess := tr.start("session", 0, fmt.Sprintf("s%d", s))
		cold := &tuneJob{cold: true, session: s}
		runJob(tr, d.cl, cold, sess.id)
		jobs = append(jobs, cold)
		heaps = append(heaps, liveHeapMB())
		for _, r := range retunes(rng) {
			j := &tuneJob{req: r, session: s}
			runJob(tr, d.cl, j, sess.id)
			jobs = append(jobs, j)
		}
		sess.end()
		if err := d.stop(); err != nil {
			return nil, err
		}
	}

	var cold, warm, wait, run, tracedCold, untracedCold []float64
	for _, j := range jobs {
		o.attempted++
		if j.err != nil {
			o.failed++
			o.note("job failed: %v", j.err)
			continue
		}
		l := j.latencyS() * 1e3
		if j.cold {
			cold = append(cold, l)
			if j.session%2 == 0 {
				tracedCold = append(tracedCold, l)
			} else {
				untracedCold = append(untracedCold, l)
			}
		} else {
			warm = append(warm, l)
		}
		wait = append(wait, j.status.StartedAt.Sub(j.status.CreatedAt).Seconds())
		run = append(run, j.status.FinishedAt.Sub(*j.status.StartedAt).Seconds())
	}
	o.e2e["p50_ms"] = capInf(median(cold))
	o.e2e["heap_mb"] = median(heaps)
	o.note("%d sessions: cold jobs %s; re-tunes %s", len(heaps), tailNote(cold), tailNote(warm))
	o.layer["server.job_queue_wait_s"] = median(wait)
	o.layer["server.job_run_s"] = median(run)
	o.layer["obs.trace_overhead"] = ratio(median(tracedCold), median(untracedCold))

	checkTune(o, fx, jobs)
	if e.traced() {
		if err := replayTune(e, o, fx, jobs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkTune runs the tune workload's output checks: cold recommendations
// are byte-identical, every recommended index is valid and within its job's
// budgets, and no job's estimate exceeds the workload's no-index estimate.
// It also measures the cold recommendation's executed cost.
func checkTune(o *outcome, fx *fixture, jobs []*tuneJob) {
	var first *tuneJob
	identical := true
	for _, j := range jobs {
		if j.err != nil || !j.cold {
			continue
		}
		if first == nil {
			first = j
		} else if !bytes.Equal(j.status.Result, first.status.Result) {
			identical = false
		}
	}
	o.check("cold jobs identical", first != nil && identical, "every cold recommendation is byte-identical")

	wi := fx.newWhatIf()
	totalCols := 0
	for _, name := range fx.w.Schema.TableNames() {
		totalCols += len(fx.w.Schema.Table(name).Columns)
	}
	var bad []string
	base, err := noIndexEstimate(wi, fx.w.Queries)
	if err != nil {
		bad = append(bad, err.Error())
	}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		budget := j.req.MaxNewIndexes
		if budget == 0 {
			budget = defaultMaxNew
		}
		if f := j.req.MaxColumnFraction; f > 0 {
			budget = min(budget, max(1, int(f*float64(totalCols))))
		}
		if len(j.result.NewIndexes) > budget {
			bad = append(bad, fmt.Sprintf("%s: %d indexes over budget %d", j.status.ID, len(j.result.NewIndexes), budget))
		}
		seen := map[string]bool{}
		for _, id := range j.result.NewIndexes {
			if _, err := parseIndexID(fx.w.Schema, id); err != nil || seen[id] {
				bad = append(bad, fmt.Sprintf("%s: bad index %q (%v)", j.status.ID, id, err))
			}
			seen[id] = true
		}
		if j.result.EstCost > base {
			bad = append(bad, fmt.Sprintf("%s: est_cost %v above the no-index estimate %v", j.status.ID, j.result.EstCost, base))
		}
	}
	o.check("recommendations valid", len(bad) == 0, "schema, budgets and estimates hold for every job %v", bad)

	if first == nil {
		return
	}
	costRatio, regressions, err := measuredCost(fx, wi, first.result.NewIndexes)
	o.check("cold recommendation executes", err == nil, "%v", err)
	o.layer["tuner.cost_ratio"] = costRatio
	o.layer["tuner.regressions"] = float64(regressions)
	o.note("cold recommendation %v: est_cost=%v measured cost ratio %.6f, %d regressions at α=%.1f",
		first.result.NewIndexes, first.result.EstCost, costRatio, regressions, regressionAlpha)
}

// noIndexEstimate is the weighted estimated cost of qs with no indexes,
// summed in query order as the tuner sums it.
func noIndexEstimate(wi *opt.WhatIf, qs []*query.Query) (float64, error) {
	var total float64
	for _, q := range qs {
		p, err := wi.Plan(q, catalog.NewConfiguration())
		if err != nil {
			return 0, err
		}
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		total += w * p.EstTotalCost
	}
	return total, nil
}

// parseIndexID turns an index ID ("t/bt(a,b)+(c)" or "t/cs") back into an
// index, validating every table and column against the schema.
func parseIndexID(s *catalog.Schema, id string) (*catalog.Index, error) {
	table, rest, ok := strings.Cut(id, "/")
	t := s.Table(table)
	if !ok || t == nil {
		return nil, fmt.Errorf("unknown table in %q", id)
	}
	if rest == "cs" {
		return &catalog.Index{Table: table, Kind: catalog.Columnstore}, nil
	}
	key, inc, _ := strings.Cut(strings.TrimPrefix(rest, "bt("), ")")
	if !strings.HasPrefix(rest, "bt(") || key == "" {
		return nil, fmt.Errorf("malformed index %q", id)
	}
	ix := &catalog.Index{Table: table, KeyColumns: strings.Split(key, ",")}
	if inc != "" {
		if !strings.HasPrefix(inc, "+(") || !strings.HasSuffix(inc, ")") {
			return nil, fmt.Errorf("malformed include list in %q", id)
		}
		ix.IncludedColumns = strings.Split(inc[2:len(inc)-1], ",")
	}
	for _, c := range append(append([]string(nil), ix.KeyColumns...), ix.IncludedColumns...) {
		if t.Column(c) == nil {
			return nil, fmt.Errorf("unknown column %s.%s", table, c)
		}
	}
	if ix.ID() != id {
		return nil, fmt.Errorf("index %q does not round-trip (%q)", id, ix.ID())
	}
	return ix, ix.Validate()
}

// measuredCost executes every workload query with no indexes and under the
// recommended ones, and returns Σ recommended ÷ Σ none and the number of
// queries whose measured cost rose by more than regressionAlpha. Executions
// use fixed per-query seeds, so both numbers are deterministic.
func measuredCost(fx *fixture, wi *opt.WhatIf, ids []string) (float64, int, error) {
	rec := catalog.NewConfiguration()
	for _, id := range ids {
		ix, err := parseIndexID(fx.w.Schema, id)
		if err != nil {
			return 0, 0, err
		}
		rec.Add(ix)
	}
	var none, with float64
	regressions := 0
	for _, q := range fx.w.Queries {
		var cost [2]float64
		for i, cfg := range []*catalog.Configuration{catalog.NewConfiguration(), rec} {
			p, err := wi.Plan(q, cfg)
			if err != nil {
				return 0, 0, err
			}
			r, err := fx.exec.Execute(p, util.NewRNG(modelSeed).Split("exec:"+q.Name))
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", q.Name, err)
			}
			cost[i] = r.MeasuredCost
		}
		none += cost[0]
		with += cost[1]
		if cost[1] > (1+regressionAlpha)*cost[0] {
			regressions++
		}
	}
	return with / none, regressions, nil
}

// replayTune replays the first cold job in-process, serially, on a fresh
// optimizer with a timing decorator around the classifier: per query it
// times candidate generation and TuneQuery (the query phase), then
// TuneWorkload, whose query phase is cached by then, so its time is the
// greedy phase. The replay must reproduce the daemon's recommendation
// exactly. The first re-tune is then replayed on the same what-if cache to
// measure the gate's share of a re-tune.
func replayTune(e *env, o *outcome, fx *fixture, jobs []*tuneJob) error {
	var first, retune *tuneJob
	for _, j := range jobs {
		switch {
		case j.err != nil:
		case j.cold && first == nil:
			first = j
		case !j.cold && retune == nil:
			retune = j
		}
	}
	if first == nil || retune == nil {
		return fmt.Errorf("no cold job and re-tune finished")
	}
	before := obs.TakeSnapshot()
	var gt gateTimer
	wi := fx.newWhatIf()
	tn := tuner.New(fx.w.Schema, wi, timeComparator(fx.clf, &gt), tuner.Options{Parallelism: 1})
	ctx := context.Background()
	root := e.tr.start("replay.cold_job", 0, first.status.ID)
	var genNS, queryNS int64
	var generated int
	for _, q := range fx.w.Queries {
		sp := e.tr.start("candidates.generate", root.id, root.req)
		t0 := time.Now()
		generated += len(candidates.Generate(q, fx.w.Schema, candidates.Limits{}))
		genNS += int64(time.Since(t0))
		sp.end()
		sp = e.tr.start("tuner.tune_query", root.id, root.req)
		t0 = time.Now()
		if _, err := tn.TuneQuery(ctx, q, nil); err != nil {
			return err
		}
		queryNS += int64(time.Since(t0))
		sp.end()
	}
	sp := e.tr.start("tuner.tune_workload", root.id, root.req)
	t0 := time.Now()
	rec, err := tn.TuneWorkload(ctx, fx.w.Queries, nil)
	greedyS := time.Since(t0).Seconds()
	sp.end()
	root.end()
	if err != nil {
		return err
	}
	d := obsSince(before)
	ids := make([]string, len(rec.NewIndexes))
	for i, ix := range rec.NewIndexes {
		ids[i] = ix.ID()
	}
	same := strings.Join(ids, " ") == strings.Join(first.result.NewIndexes, " ") &&
		math.Float64bits(rec.EstCost) == math.Float64bits(first.result.EstCost)
	o.check("replay reproduces cold job", same, "in-process %v est_cost=%v", ids, rec.EstCost)

	querySec := float64(queryNS) / 1e9
	o.layer["tuner.query_phase_s"] = querySec
	o.layer["tuner.greedy_phase_s"] = greedyS
	o.layer["tuner.step_candidates"] = ratio(d.histSum("tuner.workload.step.candidates"), d.histCount("tuner.workload.step.candidates"))
	for _, v := range []string{"regression", "improvement", "unsure"} {
		o.layer["tuner.gate."+v] = d.counter("tuner.gate." + v)
	}
	o.layer["candidates.generated"] = float64(generated)
	o.layer["candidates.generate_us"] = float64(genNS) / 1e3
	optLayers(o, d, true)
	gateLayers(o, &gt)
	optBusy := d.histSum("whatif.probe.latency")
	o.note("replay of %s (serial): query phase %.3fs, greedy phase %.3fs; %d what-if misses, %d gate calls over %d pairs; Optimize %.0f%% and gate %.0f%% of the job",
		first.status.ID, querySec, greedyS, int(d.counter("whatif.cache.miss")), gt.calls.Load(), gt.pairs.Load(),
		100*optBusy/(querySec+greedyS), 100*float64(gt.busyNS.Load())/1e9/(querySec+greedyS))

	var rt gateTimer
	opts := tuner.Options{Parallelism: 1, MaxNewIndexes: retune.req.MaxNewIndexes, MaxColumnFraction: retune.req.MaxColumnFraction}
	sp = e.tr.start("replay.retune", 0, retune.status.ID)
	t0 = time.Now()
	_, err = tuner.New(fx.w.Schema, wi, timeComparator(fx.clf, &rt), opts).TuneWorkload(ctx, fx.w.Queries, nil)
	retuneS := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return err
	}
	o.note("replay of re-tune %s (serial, warm cache): %.3fs, gate %.0f%% of it over %d pairs",
		retune.status.ID, retuneS, 100*float64(rt.busyNS.Load())/1e9/retuneS, rt.pairs.Load())
	return nil
}

// gateLayers reports a gate timer's counts and costs.
func gateLayers(o *outcome, gt *gateTimer) {
	o.layer["models.gate_calls"] = float64(gt.calls.Load())
	o.layer["models.gate_pairs"] = float64(gt.pairs.Load())
	o.layer["models.gate_busy_s"] = float64(gt.busyNS.Load()) / 1e9
	o.layer["models.compare_us"] = ratio(float64(gt.busyNS.Load())/1e3, float64(gt.pairs.Load()))
}
