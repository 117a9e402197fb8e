// Package tuner implements a Chaudhuri–Narasayya-style index tuner: a
// query-level search over hypothetical configurations through the
// optimizer's what-if API, a workload-level greedy enumeration under
// constraints (index count, storage budget), and a continuous-tuning driver
// that implements configurations, measures real executions, reverts
// regressions, and feeds new execution data back to adaptive models.
//
// The tuner stays "in-sync" with the optimizer by only ever considering the
// plan the optimizer picks for a configuration (§5). A plan-pair Comparator
// — the paper's classifier — can gate the search: configurations predicted
// to regress are rejected, and improvements are accepted by prediction
// rather than by estimated cost alone.
//
// What-if probes dominate tuning time, so the search fans them out across a
// bounded worker pool (Options.Parallelism). Results are deterministic:
// probes are collected per step and the winner is selected by a fixed rule
// over candidate order, never by goroutine completion order, so any
// Parallelism produces byte-identical recommendations.
package tuner

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/expdata"
	"repro/internal/models"
	"repro/internal/obs"
)

// Pre-resolved metric handles (see DESIGN.md §7). Gate counters tally the
// comparator's verdicts at the no-regression gate; the greedy counters tally
// phase (b)'s what-if calls and cache misses; pool metrics expose how often
// fan-outs actually got extra workers versus degrading to the caller.
var (
	mGateRegression = obs.C("tuner.gate.regression")
	mGateImprove    = obs.C("tuner.gate.improvement")
	mGateUnsure     = obs.C("tuner.gate.unsure")
	mStepCands      = obs.H("tuner.step.candidates")
	mWStepCands     = obs.H("tuner.workload.step.candidates")
	mGreedyCalls    = obs.C("tuner.greedy.whatif.calls")
	mGreedyMisses   = obs.C("tuner.greedy.whatif.misses")
	mWinnerMargin   = obs.H("tuner.winner.margin")
	mPoolSpawned    = obs.C("tuner.pool.spawned")
	mPoolInline     = obs.C("tuner.pool.inline")
	mPoolBusy       = obs.G("tuner.pool.busy")
	mPoolBusyMax    = obs.G("tuner.pool.busy.max")
)

// Options bound the tuner's search.
type Options struct {
	// MaxNewIndexes bounds the indexes added relative to the initial
	// configuration (the per-iteration limit of continuous tuning;
	// default 5, as §7.9).
	MaxNewIndexes int
	// StorageBudget bounds the estimated bytes of added indexes (0 = off).
	StorageBudget int64
	// MaxIndexesPerTable bounds the indexes added per table (0 = off),
	// keeping a recommendation from piling onto one hot fact table.
	MaxIndexesPerTable int
	// MaxColumnFraction bounds the number of added indexes at
	// max(1, floor(fraction × total schema columns)) (0 = off) — the
	// %-of-columns budget the index-tuning literature benchmarks at
	// 10%/20% of database columns.
	MaxColumnFraction float64
	// Compress dedups the workload by constant-stripped template into
	// weighted representatives before TuneWorkload's search (see
	// CompressWorkload), cutting what-if probes on duplicate-heavy
	// workloads without changing the recommendation.
	Compress bool
	// Alpha is the significance threshold used with the comparator.
	Alpha float64
	// MinEstImprovement is the OptTr baseline knob: a configuration is
	// only recommended when the estimated improvement exceeds this
	// fraction (0 disables the threshold).
	MinEstImprovement float64
	// Parallelism bounds the worker pool fanning out what-if probes
	// (0 = runtime.GOMAXPROCS(0); 1 = serial). Recommendations are
	// identical at every setting; only wall-clock time changes.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.MaxNewIndexes <= 0 {
		o.MaxNewIndexes = 5
	}
	if o.Alpha <= 0 {
		o.Alpha = expdata.DefaultAlpha
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// Tuner searches index configurations for queries and workloads.
type Tuner struct {
	Schema *catalog.Schema
	WhatIf *opt.WhatIf
	// Cmp is the plan-pair comparator gating the search; nil reproduces
	// the classic estimate-only tuner. Each TuneQuery and TuneWorkload call
	// gates through its own models.Memoize(Cmp): a *models.Classifier
	// classifies each distinct plan pair once per call, and no verdict
	// outlives the call, so a model retrained or swapped between calls is
	// always the one asked.
	Cmp  models.Comparator
	Opts Options

	// workers is a counting semaphore bounding the extra goroutines spawned
	// across all (possibly nested) fan-outs; nil means fully serial.
	workers chan struct{}

	// colBudget is the added-index count implied by MaxColumnFraction
	// (0 = off), resolved once against the schema at construction.
	colBudget int
}

// New creates a tuner over a schema and what-if facade. cmp may be nil.
func New(schema *catalog.Schema, whatIf *opt.WhatIf, cmp models.Comparator, opts Options) *Tuner {
	t := &Tuner{Schema: schema, WhatIf: whatIf, Cmp: cmp, Opts: opts.withDefaults()}
	if t.Opts.Parallelism > 1 {
		t.workers = make(chan struct{}, t.Opts.Parallelism-1)
	}
	if f := t.Opts.MaxColumnFraction; f > 0 && schema != nil {
		var cols int
		for _, name := range schema.TableNames() {
			cols += len(schema.Table(name).Columns)
		}
		if t.colBudget = int(f * float64(cols)); t.colBudget < 1 {
			t.colBudget = 1
		}
	}
	return t
}

// parallelFor runs fn(i) for every i in [0, n). With Parallelism P the
// tuner keeps at most P goroutines busy globally: the caller always
// participates, and extra workers are spawned only while pool tokens are
// free, so nested fan-outs (workload search inside query search inside
// continuous tuning) degrade to inline execution instead of deadlocking.
// fn must communicate through per-index slots; parallelFor imposes no
// ordering between iterations.
func (t *Tuner) parallelFor(n int, fn func(i int)) {
	if n <= 1 || t.workers == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	var spawnedAny bool
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case t.workers <- struct{}{}:
		default:
			spawned = n // no token free: the caller picks up the rest
			continue
		}
		spawnedAny = true
		mPoolSpawned.Inc()
		mPoolBusy.Add(1)
		mPoolBusyMax.Max(mPoolBusy.Value())
		wg.Add(1)
		go func() {
			defer func() {
				<-t.workers
				mPoolBusy.Add(-1)
				wg.Done()
			}()
			run()
		}()
	}
	if !spawnedAny {
		// The pool was saturated (nested fan-out): this fan-out degraded to
		// inline execution by the caller.
		mPoolInline.Inc()
	}
	run()
	wg.Wait()
}

// Recommendation is the outcome of a query-level search.
type Recommendation struct {
	Config *catalog.Configuration
	Plan   *plan.Plan
	// NewIndexes are the indexes added relative to the initial config.
	NewIndexes []*catalog.Index
	// EstImprovement is the optimizer-estimated fractional cost reduction.
	EstImprovement float64
}

// allowedByBudget checks every added-index budget — storage bytes,
// per-table index count, and the %-of-columns count — on the diff versus
// the initial configuration. It is the single budget gate shared by the
// query-level and workload-level searches, so all budgets hold at both.
func (t *Tuner) allowedByBudget(c0, c *catalog.Configuration) bool {
	if t.Opts.StorageBudget <= 0 && t.Opts.MaxIndexesPerTable <= 0 && t.colBudget <= 0 {
		return true
	}
	diff := c.Diff(c0)
	if t.colBudget > 0 && len(diff) > t.colBudget {
		return false
	}
	if max := t.Opts.MaxIndexesPerTable; max > 0 {
		perTable := map[string]int{}
		for _, ix := range diff {
			if perTable[ix.Table]++; perTable[ix.Table] > max {
				return false
			}
		}
	}
	if t.Opts.StorageBudget > 0 {
		var added int64
		for _, ix := range diff {
			added += ix.EstimatedBytes(t.Schema.Table(ix.Table))
		}
		if added > t.Opts.StorageBudget {
			return false
		}
	}
	return true
}

// gateVerdict tallies one no-regression verdict and reports acceptance.
// It is the single accounting point for the gate counters.
func gateVerdict(v expdata.Label) bool {
	switch v {
	case expdata.Regression:
		mGateRegression.Inc()
		return false
	case expdata.Improvement:
		mGateImprove.Inc()
	default:
		mGateUnsure.Inc()
	}
	return true
}

// gate runs one step's no-regression gate with cmp, the call's memoized
// t.Cmp. probe(k) returns the k-th (initial plan, candidate plan) pair, or
// the error of the probe behind it; the first error in k order is returned
// before anything is classified. Otherwise the pairs are classified by one
// models.CompareAll call and the verdicts are returned untallied: callers
// feed them to gateVerdict in k order. The verdicts are nil when there is
// no comparator (the classic tuner trusts estimates) or no pair.
func gate(cmp models.Comparator, n int, probe func(k int) (p0, p *plan.Plan, err error)) ([]expdata.Label, error) {
	pairs := make([]models.PlanPair, n)
	for k := range pairs {
		var err error
		if pairs[k].P1, pairs[k].P2, err = probe(k); err != nil {
			return nil, err
		}
	}
	if cmp == nil || n == 0 {
		return nil, nil
	}
	return models.CompareAll(cmp, pairs, nil), nil
}

// better decides whether candidate pH improves on the incumbent pBest,
// using cmp, the call's memoized t.Cmp, when present (optimizer estimates
// break unsure ties, §5), otherwise estimated cost.
//
// Invariant: within one greedy step every candidate is gated against the
// same incumbent — the best plan of the previous step — never against the
// running step leader. A comparator is not necessarily transitive (A can
// beat B and B beat C while C beats A), so chaining comparisons through a
// moving leader would make the chosen index depend on candidate iteration
// order. Survivors of the fixed gate are instead ranked by one
// deterministic rule: lowest estimated cost, earliest candidate on ties.
func better(cmp models.Comparator, pBest, pH *plan.Plan) bool {
	if cmp != nil {
		switch cmp.Compare(pBest, pH) {
		case expdata.Improvement:
			return true
		case expdata.Regression:
			return false
		}
	}
	return pH.EstTotalCost < pBest.EstTotalCost
}

// stepWinner returns the winner of a greedy step among the gate's
// survivors, given in candidate order: the lowest-cost survivor that better
// accepts against the incumbent, the earliest on ties, or nil when better
// accepts none. It asks better in ascending (cost, candidate order) and
// stops at the first acceptance, which is that survivor, so the comparator
// is consulted only while a survivor can still win. It reorders survivors.
func stepWinner(c models.Comparator, incumbent *plan.Plan, survivors []*queryProbe) *queryProbe {
	slices.SortStableFunc(survivors, func(a, b *queryProbe) int {
		return cmp.Compare(a.p.EstTotalCost, b.p.EstTotalCost)
	})
	for _, pr := range survivors {
		if better(c, incumbent, pr.p) {
			return pr
		}
	}
	return nil
}

// queryProbe is one candidate probe of a greedy step: the candidate index,
// the hypothetical configuration including it, and the optimizer's answer.
type queryProbe struct {
	ix  *catalog.Index
	cfg *catalog.Configuration
	p   *plan.Plan
	err error
}

// TuneQuery searches the best configuration for one query starting from
// c0: greedy addition of candidate indexes, gated by the no-regression
// constraint and the improvement rule. Each greedy step fans its what-if
// probes out over the worker pool and then selects the winner serially in
// candidate order, so results are identical at any Parallelism.
//
// ctx cancels the search: cancellation is checked before every greedy step
// and inside every probe, so a cancelled tune returns ctx.Err() within one
// what-if probe's latency instead of running the full enumeration.
func (t *Tuner) TuneQuery(ctx context.Context, q *query.Query, c0 *catalog.Configuration) (*Recommendation, error) {
	return t.tuneQuery(ctx, q, c0, models.Memoize(t.Cmp))
}

// tuneQuery is TuneQuery gated by cmp, which TuneWorkload shares across
// its query searches.
func (t *Tuner) tuneQuery(ctx context.Context, q *query.Query, c0 *catalog.Configuration, cmp models.Comparator) (*Recommendation, error) {
	sp := obs.StartSpan("tuner.query")
	defer sp.End()
	if ctx == nil {
		ctx = context.Background()
	}
	if c0 == nil {
		c0 = catalog.NewConfiguration()
	}
	p0, err := t.WhatIf.Plan(q, c0)
	if err != nil {
		return nil, fmt.Errorf("tuner: initial plan for %s: %w", q.Name, err)
	}
	cands := candidates.CandidateIndexes(q, t.Schema)
	bestCfg, bestPlan := c0, p0
	used := map[string]bool{}

	for len(bestCfg.Diff(c0)) < t.Opts.MaxNewIndexes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Collect this step's eligible candidates in candidate order.
		probes := make([]*queryProbe, 0, len(cands))
		for _, ix := range cands {
			if used[ix.ID()] || bestCfg.Has(ix) {
				continue
			}
			cfg := bestCfg.Clone().Add(ix)
			if !t.allowedByBudget(c0, cfg) {
				continue
			}
			probes = append(probes, &queryProbe{ix: ix, cfg: cfg})
		}
		mStepCands.Observe(float64(len(probes)))
		t.parallelFor(len(probes), func(i int) {
			pr := probes[i]
			if pr.err = ctx.Err(); pr.err != nil {
				return
			}
			pr.p, pr.err = t.WhatIf.Plan(q, pr.cfg)
		})
		// Serial selection over the probe results, in candidate order: gate
		// every candidate against the initial plan, then pick the step's
		// winner among the survivors against its fixed incumbent
		// (bestPlan).
		verdicts, err := gate(cmp, len(probes), func(i int) (*plan.Plan, *plan.Plan, error) {
			return p0, probes[i].p, probes[i].err
		})
		if err != nil {
			return nil, err
		}
		survivors := probes[:0]
		for i, pr := range probes {
			if verdicts == nil || gateVerdict(verdicts[i]) {
				survivors = append(survivors, pr)
			}
		}
		step := stepWinner(cmp, bestPlan, survivors)
		if step == nil {
			break
		}
		if bestPlan.EstTotalCost > 0 {
			mWinnerMargin.Observe(1 - step.p.EstTotalCost/bestPlan.EstTotalCost)
		}
		bestCfg, bestPlan = step.cfg, step.p
		used[step.ix.ID()] = true
	}

	rec := &Recommendation{
		Config:     bestCfg,
		Plan:       bestPlan,
		NewIndexes: bestCfg.Diff(c0),
	}
	if p0.EstTotalCost > 0 {
		rec.EstImprovement = 1 - bestPlan.EstTotalCost/p0.EstTotalCost
	}
	// The OptTr baseline refuses recommendations below the estimated
	// improvement threshold.
	if t.Opts.MinEstImprovement > 0 && rec.EstImprovement < t.Opts.MinEstImprovement {
		return &Recommendation{Config: c0, Plan: p0}, nil
	}
	return rec, nil
}

// WorkloadRecommendation is the outcome of a workload-level search.
type WorkloadRecommendation struct {
	Config *catalog.Configuration
	// NewIndexes are added relative to the initial configuration.
	NewIndexes []*catalog.Index
	// EstCost is the weighted optimizer-estimated workload cost under
	// Config.
	EstCost float64
}

// workloadCost computes the weighted estimated cost of a workload under
// cfg, where cfg differs from the configuration behind curPlans only by
// indexes relevant to the queries at touched (ascending). Only those
// queries are re-planned and re-gated against their initial plans; every
// other query keeps its plan from curPlans. That is exact, not an
// approximation: the optimizer ignores an index that is not relevant to a
// query (opt.Optimizer.Relevant), so an untouched query's plan under cfg
// carries the same estimates as its plan in curPlans, and that plan is
// either the query's initial plan, which is never gated, or one the gate —
// a pure function of the plan pair — already accepted. ok is false when
// some touched query is predicted to regress. The touched plans are probed
// in parallel; the gate and the weighted sum run serially in query order,
// so the result (including float summation order) matches re-planning
// every query. On success the returned slice holds every query's plan
// under cfg.
func (t *Tuner) workloadCost(ctx context.Context, cmp models.Comparator, qs []*query.Query, initPlans, curPlans []*plan.Plan, touched []int, cfg *catalog.Configuration) ([]*plan.Plan, float64, bool, error) {
	plans := append([]*plan.Plan(nil), curPlans...)
	errs := make([]error, len(touched))
	t.parallelFor(len(touched), func(k int) {
		i := touched[k]
		if errs[k] = ctx.Err(); errs[k] != nil {
			return
		}
		plans[i], errs[k] = t.WhatIf.Plan(qs[i], cfg)
	})
	verdicts, err := gate(cmp, len(touched), func(k int) (*plan.Plan, *plan.Plan, error) {
		i := touched[k]
		return initPlans[i], plans[i], errs[k]
	})
	if err != nil {
		return nil, 0, false, err
	}
	// Tally in query order, stopping at the first regression.
	for _, v := range verdicts {
		if !gateVerdict(v) {
			return nil, 0, false, nil
		}
	}
	return plans, weightedCost(qs, plans), true, nil
}

// weightedCost sums the weighted estimated costs of the queries' plans in
// query order (a weight <= 0 counts as 1), so every caller gets the same
// float bits for the same plans.
func weightedCost(qs []*query.Query, plans []*plan.Plan) float64 {
	var total float64
	for i, q := range qs {
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		total += w * plans[i].EstTotalCost
	}
	return total
}

// TuneWorkload runs the two-phase search of §5: query-level search derives
// the candidate index pool; a greedy enumeration assembles the workload
// configuration under the constraints. Phase (a) tunes the queries in
// parallel; phase (b) evaluates the pool candidates of each greedy step in
// parallel, each re-planning only the queries it is relevant to.
// Both phases pick winners by fixed order-based rules, so the
// recommendation is identical at any Parallelism. ctx cancels both phases.
func (t *Tuner) TuneWorkload(ctx context.Context, qs []*query.Query, c0 *catalog.Configuration) (*WorkloadRecommendation, error) {
	sp := obs.StartSpan("tuner.workload")
	defer sp.End()
	if ctx == nil {
		ctx = context.Background()
	}
	if c0 == nil {
		c0 = catalog.NewConfiguration()
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("tuner: empty workload")
	}
	if t.Opts.Compress {
		qs = CompressWorkload(qs)
	}
	cmp := models.Memoize(t.Cmp) // shared by both phases
	initPlans := make([]*plan.Plan, len(qs))
	initErrs := make([]error, len(qs))
	t.parallelFor(len(qs), func(i int) {
		if initErrs[i] = ctx.Err(); initErrs[i] != nil {
			return
		}
		initPlans[i], initErrs[i] = t.WhatIf.Plan(qs[i], c0)
	})
	for _, err := range initErrs {
		if err != nil {
			return nil, err
		}
	}
	// Phase (a): per-query bests form the candidate pool. The pool is
	// assembled serially in query order from the parallel results, keeping
	// its order — and therefore phase (b)'s tie-breaks — deterministic.
	recs := make([]*Recommendation, len(qs))
	recErrs := make([]error, len(qs))
	t.parallelFor(len(qs), func(i int) {
		recs[i], recErrs[i] = t.tuneQuery(ctx, qs[i], c0, cmp)
	})
	poolSet := map[string]*catalog.Index{}
	var pool []*catalog.Index
	for i := range qs {
		if recErrs[i] != nil {
			return nil, recErrs[i]
		}
		for _, ix := range recs[i].NewIndexes {
			if _, ok := poolSet[ix.ID()]; !ok {
				poolSet[ix.ID()] = ix
				pool = append(pool, ix)
			}
		}
	}
	// Phase (b): greedy assembly over cur's per-query plans. touches[k]
	// lists, ascending, the queries pool[k] is relevant to: the only ones
	// adding it can re-plan.
	touches := make([][]int, len(pool))
	for k, ix := range pool {
		for i, q := range qs {
			if t.WhatIf.Opt.Relevant(q, ix) {
				touches[k] = append(touches[k], i)
			}
		}
	}
	calls0, hits0 := t.WhatIf.Stats()
	// The search starts from the initial plans themselves. They are not
	// gated: comparing a plan with itself carries no information, and a
	// classifier that calls such a pair a regression must not fail the job.
	cur, curPlans, curCost := c0, initPlans, weightedCost(qs, initPlans)
	baseCost := curCost
	for len(cur.Diff(c0)) < t.Opts.MaxNewIndexes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		type poolProbe struct {
			cfg     *catalog.Configuration
			touched []int
			plans   []*plan.Plan
			cost    float64
			ok      bool
			err     error
		}
		probes := make([]*poolProbe, 0, len(pool))
		for k, ix := range pool {
			if cur.Has(ix) {
				continue
			}
			cfg := cur.Clone().Add(ix)
			if !t.allowedByBudget(c0, cfg) {
				continue
			}
			probes = append(probes, &poolProbe{cfg: cfg, touched: touches[k]})
		}
		mWStepCands.Observe(float64(len(probes)))
		t.parallelFor(len(probes), func(i int) {
			pr := probes[i]
			pr.plans, pr.cost, pr.ok, pr.err = t.workloadCost(ctx, cmp, qs, initPlans, curPlans, pr.touched, pr.cfg)
		})
		// First candidate at the strictly lowest cost wins, as in the
		// serial enumeration.
		var step *poolProbe
		stepCost := curCost
		for _, pr := range probes {
			if pr.err != nil {
				return nil, pr.err
			}
			if pr.ok && pr.cost < stepCost {
				step, stepCost = pr, pr.cost
			}
		}
		if step == nil {
			break
		}
		cur, curPlans, curCost = step.cfg, step.plans, step.cost
	}
	// What-if traffic of the phase, read off the facade (a concurrent user
	// of the same facade is attributed here too).
	calls1, hits1 := t.WhatIf.Stats()
	mGreedyCalls.Add(int64(calls1 - calls0))
	mGreedyMisses.Add(int64(calls1 - hits1 - (calls0 - hits0)))
	if t.Opts.MinEstImprovement > 0 {
		base := math.Max(1e-9, baseCost)
		if 1-curCost/base < t.Opts.MinEstImprovement {
			cur, curCost = c0, baseCost
		}
	}
	return &WorkloadRecommendation{Config: cur, NewIndexes: cur.Diff(c0), EstCost: curCost}, nil
}
