package tuner

import (
	"context"
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/query"
	"repro/internal/expdata"
	"repro/internal/obs"
	"repro/internal/util"
)

// Continuous-tuning metric handles (see DESIGN.md §7). The
// measured-vs-estimated histogram records the ratio of measured cost to the
// optimizer's estimate for each implemented recommendation — the drift the
// paper's classifier exists to absorb.
var (
	mContRevert  = obs.C("tuner.cont.revert")
	mContAccept  = obs.C("tuner.cont.accept")
	mContMeasEst = obs.H("tuner.cont.measured_vs_estimated")
)

// ContinuousOpts configure the continuous-tuning driver (§2.1 problem 2,
// evaluated in §7.9).
type ContinuousOpts struct {
	// Iterations is the number of tuning rounds (paper: 10).
	Iterations int
	// Lambda is the measured-regression threshold for reverting (0.2).
	Lambda float64
	// ExecRepeats is the number of executions whose median measures a
	// configuration (default 3).
	ExecRepeats int
	// StopOnRegression stops tuning after the first revert, as the
	// feedback-free Opt/OptTr baselines must (they would recommend the
	// same reverted indexes forever).
	StopOnRegression bool
	// Seed drives measurement noise.
	Seed int64
}

func (o ContinuousOpts) withDefaults() ContinuousOpts {
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.Lambda <= 0 {
		o.Lambda = 0.2
	}
	if o.ExecRepeats <= 0 {
		o.ExecRepeats = 3
	}
	return o
}

// Continuous drives iterative tuning with real executions: implement the
// recommendation, measure, revert regressions, collect execution data, and
// let adaptive models retrain between iterations.
type Continuous struct {
	Tuner *Tuner
	Exec  *exec.Executor
	Opts  ContinuousOpts
	// Collected accumulates the executed plans observed during tuning
	// (the passively collected data adaptive models retrain on).
	Collected *expdata.Dataset
	// OnData, when set, is invoked after each measurement round with the
	// accumulated dataset; adaptive comparators retrain here.
	OnData func(d *expdata.Dataset)
	// OnIter, when set, is invoked after every tuning iteration with the
	// iteration record and the configuration in effect once the iteration
	// settled (the pre-step configuration when the step was reverted).
	// Tests use it to assert revert exactness mid-run.
	OnIter func(r IterRecord, cfg *catalog.Configuration)
}

// NewContinuous wires a continuous driver.
func NewContinuous(t *Tuner, ex *exec.Executor, opts ContinuousOpts) *Continuous {
	return &Continuous{
		Tuner:     t,
		Exec:      ex,
		Opts:      opts.withDefaults(),
		Collected: expdata.NewDataset(ex.DB.Schema.Name),
	}
}

// measure plans and executes a query under a configuration, records the
// executed plan into the collected dataset, and returns it.
func (c *Continuous) measure(q *query.Query, cfg *catalog.Configuration, rng *util.RNG) (*expdata.ExecutedPlan, error) {
	ep, err := c.measureOne(q, cfg, rng)
	if err != nil {
		return nil, err
	}
	c.Collected.Add(ep)
	return ep, nil
}

// measureOne plans and executes a query under a configuration and returns
// the executed plan WITHOUT recording it. It is safe to call concurrently;
// callers add results to the collected dataset serially so the dataset
// order (which seeds pair sampling and model retraining) stays
// deterministic.
func (c *Continuous) measureOne(q *query.Query, cfg *catalog.Configuration, rng *util.RNG) (*expdata.ExecutedPlan, error) {
	p, err := c.Tuner.WhatIf.Plan(q, cfg)
	if err != nil {
		return nil, err
	}
	cost, first, err := c.Exec.MedianCost(p, rng, c.Opts.ExecRepeats)
	if err != nil {
		return nil, err
	}
	ep := &expdata.ExecutedPlan{
		DB:      c.Exec.DB.Schema.Name,
		Query:   q,
		Plan:    p,
		Actuals: first.Actuals,
		Cost:    cost,
		Configs: []string{cfg.Fingerprint()},
	}
	return ep, nil
}

// IterRecord traces one tuning iteration.
type IterRecord struct {
	Iter       int
	NewIndexes int
	Reverted   bool
	// CostBefore/CostAfter are the measured costs at the incumbent and
	// candidate configurations.
	CostBefore float64
	CostAfter  float64
}

// QueryTrace is the outcome of continuously tuning one query.
type QueryTrace struct {
	Query       *query.Query
	InitialCost float64
	FinalCost   float64
	FinalConfig *catalog.Configuration
	Iterations  []IterRecord
	// RegressedFinal reports a revert at the last attempted iteration
	// (the paper's Regress(final) metric).
	RegressedFinal bool
	// Stopped reports that tuning stopped before the iteration budget.
	Stopped bool
}

// Improved reports whether the final cost improved by at least frac over
// the initial cost (Improve(cumulative) uses frac = 0.2).
func (tr *QueryTrace) Improved(frac float64) bool {
	return tr.FinalCost < (1-frac)*tr.InitialCost
}

// TuneQueryContinuously runs the per-query continuous loop of §7.9. ctx
// cancels the loop between (and inside) iterations; a cancelled run returns
// ctx.Err() rather than a partial trace.
func (c *Continuous) TuneQueryContinuously(ctx context.Context, q *query.Query, c0 *catalog.Configuration) (*QueryTrace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c0 == nil {
		c0 = catalog.NewConfiguration()
	}
	rng := util.NewRNG(c.Opts.Seed).Split("cont:" + q.Name)
	base, err := c.measure(q, c0, rng.Split("init"))
	if err != nil {
		return nil, fmt.Errorf("tuner: measuring initial config for %s: %w", q.Name, err)
	}
	c.notify()
	trace := &QueryTrace{Query: q, InitialCost: base.Cost, FinalCost: base.Cost, FinalConfig: c0}
	cur := c0
	curCost := base.Cost
	for iter := 1; iter <= c.Opts.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := c.Tuner.TuneQuery(ctx, q, cur)
		if err != nil {
			return nil, err
		}
		if len(rec.NewIndexes) == 0 {
			trace.Stopped = true
			break
		}
		ep, err := c.measure(q, rec.Config, rng.SplitInt(iter))
		if err != nil {
			return nil, err
		}
		r := IterRecord{Iter: iter, NewIndexes: len(rec.NewIndexes), CostBefore: curCost, CostAfter: ep.Cost}
		if rec.Plan != nil && rec.Plan.EstTotalCost > 0 {
			mContMeasEst.Observe(ep.Cost / rec.Plan.EstTotalCost)
		}
		if ep.Cost > (1+c.Opts.Lambda)*curCost {
			// Measured regression: revert the indexes. The configuration
			// revert is simply keeping `cur`: Configurations are immutable
			// here (the tuner clones before every Add), so `cur` still equals
			// the pre-step snapshot byte for byte — see
			// TestContinuousRevertRestoresPriorConfig. What does need undoing
			// is physical: measuring rec.Config made the executor build the
			// new indexes, and without a drop they would linger in its index
			// cache after the revert.
			mContRevert.Inc()
			r.Reverted = true
			trace.RegressedFinal = true
			trace.Iterations = append(trace.Iterations, r)
			c.dropReverted(cur, rec.NewIndexes)
			c.notify()
			c.notifyIter(r, cur)
			if c.Opts.StopOnRegression {
				trace.Stopped = true
				break
			}
			continue
		}
		mContAccept.Inc()
		trace.RegressedFinal = false
		cur, curCost = rec.Config, ep.Cost
		trace.Iterations = append(trace.Iterations, r)
		c.notify()
		c.notifyIter(r, cur)
	}
	trace.FinalCost = curCost
	trace.FinalConfig = cur
	return trace, nil
}

// WorkloadTrace is the outcome of continuously tuning a query workload.
type WorkloadTrace struct {
	InitialCost float64
	FinalCost   float64
	FinalConfig *catalog.Configuration
	Iterations  []IterRecord
	Stopped     bool
}

// Improvement returns the fractional workload cost reduction.
func (tr *WorkloadTrace) Improvement() float64 {
	if tr.InitialCost <= 0 {
		return 0
	}
	return 1 - tr.FinalCost/tr.InitialCost
}

// measureWorkload measures every query under cfg and returns per-query
// costs and the weighted total. Measurements fan out over the tuner's
// worker pool; each query draws noise from its own named RNG stream and
// the executed plans are recorded in query order, so costs and collected
// data are identical at any Parallelism.
func (c *Continuous) measureWorkload(qs []*query.Query, cfg *catalog.Configuration, rng *util.RNG) ([]float64, float64, error) {
	eps := make([]*expdata.ExecutedPlan, len(qs))
	errs := make([]error, len(qs))
	c.Tuner.parallelFor(len(qs), func(i int) {
		eps[i], errs[i] = c.measureOne(qs[i], cfg, rng.Split("q:"+qs[i].Name))
	})
	costs := make([]float64, len(qs))
	var total float64
	for i, q := range qs {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		c.Collected.Add(eps[i])
		costs[i] = eps[i].Cost
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		total += w * eps[i].Cost
	}
	return costs, total, nil
}

// TuneWorkloadContinuously runs the workload-level continuous loop of §7.9:
// each iteration recommends up to MaxNewIndexes, implements them, and
// reverts to the previous configuration when any query regresses. ctx
// cancels the loop between (and inside) iterations.
func (c *Continuous) TuneWorkloadContinuously(ctx context.Context, qs []*query.Query, c0 *catalog.Configuration) (*WorkloadTrace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c0 == nil {
		c0 = catalog.NewConfiguration()
	}
	rng := util.NewRNG(c.Opts.Seed).Split("contw")
	curCosts, curTotal, err := c.measureWorkload(qs, c0, rng.Split("init"))
	if err != nil {
		return nil, err
	}
	c.notify()
	trace := &WorkloadTrace{InitialCost: curTotal, FinalCost: curTotal, FinalConfig: c0}
	cur := c0
	for iter := 1; iter <= c.Opts.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := c.Tuner.TuneWorkload(ctx, qs, cur)
		if err != nil {
			return nil, err
		}
		if len(rec.NewIndexes) == 0 {
			trace.Stopped = true
			break
		}
		newCosts, newTotal, err := c.measureWorkload(qs, rec.Config, rng.SplitInt(iter))
		if err != nil {
			return nil, err
		}
		r := IterRecord{Iter: iter, NewIndexes: len(rec.NewIndexes), CostBefore: curTotal, CostAfter: newTotal}
		if rec.EstCost > 0 {
			mContMeasEst.Observe(newTotal / rec.EstCost)
		}
		regressed := false
		for i := range qs {
			if newCosts[i] > (1+c.Opts.Lambda)*curCosts[i] {
				regressed = true
				break
			}
		}
		if regressed {
			mContRevert.Inc()
			r.Reverted = true
			trace.Iterations = append(trace.Iterations, r)
			c.dropReverted(cur, rec.NewIndexes)
			c.notify()
			c.notifyIter(r, cur)
			if c.Opts.StopOnRegression {
				trace.Stopped = true
				break
			}
			continue
		}
		mContAccept.Inc()
		cur, curCosts, curTotal = rec.Config, newCosts, newTotal
		trace.Iterations = append(trace.Iterations, r)
		c.notify()
		c.notifyIter(r, cur)
	}
	trace.FinalCost = curTotal
	trace.FinalConfig = cur
	return trace, nil
}

func (c *Continuous) notify() {
	if c.OnData != nil {
		c.OnData(c.Collected)
	}
}

func (c *Continuous) notifyIter(r IterRecord, cfg *catalog.Configuration) {
	if c.OnIter != nil {
		c.OnIter(r, cfg)
	}
}

// dropReverted evicts the physical indexes a reverted step had built, except
// any that the retained configuration still uses (the step's "new" indexes
// are new relative to cur, so overlap cannot happen today; the guard keeps
// the invariant local). Dropping is hygiene, not correctness: a later step
// re-requesting the index rebuilds it deterministically via BulkLoad, so
// measured costs are unchanged either way — but without the drop a
// long-running continuous tuner pins the storage of every configuration it
// ever tried and rejected.
func (c *Continuous) dropReverted(cur *catalog.Configuration, newIndexes []*catalog.Index) {
	for _, ix := range newIndexes {
		if !cur.Has(ix) {
			c.Exec.DropIndex(ix)
		}
	}
}
