package exec

import (
	"math"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/util"
)

// requireSameResults compares a vectorized execution against the frozen
// row-at-a-time reference: identical columns, identical rows in identical
// order, bit-identical WorkCost and MeasuredCost, and bit-identical
// per-node actuals.
func requireSameResults(t *testing.T, name string, vec, ref *Result) {
	t.Helper()
	if len(vec.Cols) != len(ref.Cols) {
		t.Fatalf("%s: cols %v vs ref %v", name, vec.Cols, ref.Cols)
	}
	for i := range vec.Cols {
		if vec.Cols[i] != ref.Cols[i] {
			t.Fatalf("%s: col %d = %v vs ref %v", name, i, vec.Cols[i], ref.Cols[i])
		}
	}
	if len(vec.Rows) != len(ref.Rows) {
		t.Fatalf("%s: %d rows vs ref %d", name, len(vec.Rows), len(ref.Rows))
	}
	for i := range vec.Rows {
		if len(vec.Rows[i]) != len(ref.Rows[i]) {
			t.Fatalf("%s: row %d width %d vs ref %d", name, i, len(vec.Rows[i]), len(ref.Rows[i]))
		}
		for j := range vec.Rows[i] {
			if vec.Rows[i][j] != ref.Rows[i][j] {
				t.Fatalf("%s: row %d col %d = %d vs ref %d\nvec row %v\nref row %v",
					name, i, j, vec.Rows[i][j], ref.Rows[i][j], vec.Rows[i], ref.Rows[i])
			}
		}
	}
	if math.Float64bits(vec.WorkCost) != math.Float64bits(ref.WorkCost) {
		t.Fatalf("%s: WorkCost %x vs ref %x", name, vec.WorkCost, ref.WorkCost)
	}
	if math.Float64bits(vec.MeasuredCost) != math.Float64bits(ref.MeasuredCost) {
		t.Fatalf("%s: MeasuredCost %x vs ref %x", name, vec.MeasuredCost, ref.MeasuredCost)
	}
	if len(vec.Actuals) != len(ref.Actuals) {
		t.Fatalf("%s: %d actuals vs ref %d", name, len(vec.Actuals), len(ref.Actuals))
	}
	for i, a := range vec.Actuals {
		b := ref.Actuals[i]
		if math.Float64bits(a.Rows) != math.Float64bits(b.Rows) {
			t.Fatalf("%s: node %d actual rows %v vs ref %v", name, i, a.Rows, b.Rows)
		}
		if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
			t.Fatalf("%s: node %d actual cost %x vs ref %x", name, i, a.Cost, b.Cost)
		}
	}
}

// runBoth optimizes (with optional knob mutation), executes on both engines
// with the same noise seed, and compares. Returns the plan for coverage
// tracking; nil if the optimizer rejected the query.
func runBoth(t *testing.T, e *env, q *query.Query, cfg *catalog.Configuration, mutate func(*opt.Optimizer), seed int64) *plan.Plan {
	t.Helper()
	o := opt.New(e.schema, e.st)
	if mutate != nil {
		mutate(o)
	}
	p, err := o.Optimize(q, cfg)
	if err != nil {
		t.Fatalf("%s: optimize: %v", q.Name, err)
	}
	vec, verr := e.exec.Execute(p, util.NewRNG(seed))
	ref, rerr := refExecute(e.exec, p, util.NewRNG(seed))
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("%s: error divergence: vec=%v ref=%v", q.Name, verr, rerr)
	}
	if verr != nil {
		return p
	}
	requireSameResults(t, q.Name, vec, ref)
	return p
}

// TestVectorizedMatchesReferenceDirected pins every operator kernel against
// the reference engine with hand-built queries and knob-forced plan shapes.
// The coverage assertion at the end guarantees the suite keeps exercising
// all kernels if the optimizer's preferences drift.
func TestVectorizedMatchesReferenceDirected(t *testing.T) {
	e := newEnv(t)
	seen := map[plan.Op]bool{}
	track := func(p *plan.Plan) {
		p.Root.Walk(func(n *plan.Node) { seen[n.Op] = true })
	}
	fcol := func(c string) query.ColRef { return query.ColRef{Table: "fact", Column: c} }
	pricedForMerge := func(o *opt.Optimizer) {
		o.Model.HashBuildCPU = 1e6
		o.Model.HashProbeCPU = 1e6
		o.Model.NLJCPU = 1e6
		o.Model.ProbeCPU = 1e6
	}
	pricedForNLJ := func(o *opt.Optimizer) {
		o.Model.HashBuildCPU = 1e6
		o.Model.HashProbeCPU = 1e6
		o.Model.MergeCPU = 1e6
		o.Model.SortCPU = 1e6
	}
	joinQ := func(name string) *query.Query {
		return &query.Query{
			Name:   name,
			Tables: []string{"fact", "dim"},
			Preds:  []query.Pred{{Table: "dim", Column: "d_cat", Lo: 2, Hi: 4}},
			Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
			Aggs:   []query.Agg{{Func: query.Count}},
		}
	}

	cases := []struct {
		q      *query.Query
		cfg    *catalog.Configuration
		mutate func(*opt.Optimizer)
	}{
		// Heap scan with multi-predicate residual.
		{q: &query.Query{Name: "scan", Tables: []string{"fact"},
			Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 10, Hi: 200}, {Table: "fact", Column: "f_val", Lo: 0, Hi: 40}},
			Select: []query.ColRef{fcol("f_id"), fcol("f_val")}}},
		// Columnstore scan.
		{q: &query.Query{Name: "cstore", Tables: []string{"fact"},
			Preds:   []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 120}},
			GroupBy: []query.ColRef{fcol("f_dim")},
			Aggs:    []query.Agg{{Func: query.Sum, Col: fcol("f_val")}, {Func: query.Avg, Col: fcol("f_val")}}},
			cfg: catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore})},
		// Covering index scan (no sargable predicate).
		{q: &query.Query{Name: "iscan", Tables: []string{"fact"}, Select: []query.ColRef{fcol("f_val")}},
			cfg: catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_val"}})},
		// Index seek, key lookup, residual filter above the lookup.
		{q: &query.Query{Name: "seeklookup", Tables: []string{"fact"},
			Preds:  []query.Pred{{Table: "fact", Column: "f_dim", Lo: 7, Hi: 7}, {Table: "fact", Column: "f_val", Lo: 0, Hi: 30}},
			Select: []query.ColRef{fcol("f_id"), fcol("f_date")}},
			cfg: catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}})},
		// Hash join under aggregation.
		{q: joinQ("hj")},
		// Merge join (hash and NLJ priced out).
		{q: joinQ("mj"), mutate: pricedForMerge},
		// Plain nested loops (everything else priced out).
		{q: joinQ("plainnlj"), mutate: pricedForNLJ},
		// Index nested loops with a covering inner index.
		{q: &query.Query{Name: "inlj", Tables: []string{"dim", "fact"},
			Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 3, Hi: 5}},
			Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
			Select: []query.ColRef{fcol("f_val"), {Table: "dim", Column: "d_cat"}}},
			cfg: catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}})},
		// Index nested loops through seek + lookup (non-covering inner index).
		{q: &query.Query{Name: "inljlookup", Tables: []string{"dim", "fact"},
			Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 3, Hi: 5}, {Table: "fact", Column: "f_val", Lo: 0, Hi: 100}},
			Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
			Select: []query.ColRef{fcol("f_date"), {Table: "dim", Column: "d_cat"}}},
			cfg:    catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}}),
			mutate: pricedForNLJ},
		// Sort + top-k descending.
		{q: &query.Query{Name: "topk", Tables: []string{"fact"},
			Preds:   []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 180}},
			Select:  []query.ColRef{fcol("f_id"), fcol("f_val")},
			OrderBy: []query.ColRef{fcol("f_val"), fcol("f_id")}, Desc: true, Limit: 25}},
		// Ascending order without limit.
		{q: &query.Query{Name: "orderasc", Tables: []string{"fact"},
			Preds:   []query.Pred{{Table: "fact", Column: "f_dim", Lo: 0, Hi: 3}},
			Select:  []query.ColRef{fcol("f_date")},
			OrderBy: []query.ColRef{fcol("f_date")}}},
		// All aggregate functions in one grouped query.
		{q: &query.Query{Name: "allaggs", Tables: []string{"fact"},
			GroupBy: []query.ColRef{fcol("f_dim")},
			Aggs: []query.Agg{{Func: query.Count}, {Func: query.Sum, Col: fcol("f_val")},
				{Func: query.Min, Col: fcol("f_val")}, {Func: query.Max, Col: fcol("f_date")},
				{Func: query.Avg, Col: fcol("f_date")}}}},
		// Stream aggregate over an ordered near-unique group key.
		{q: &query.Query{Name: "sagg", Tables: []string{"dim"},
			GroupBy: []query.ColRef{{Table: "dim", Column: "d_id"}},
			Aggs:    []query.Agg{{Func: query.Count}},
			OrderBy: []query.ColRef{{Table: "dim", Column: "d_id"}}}},
		// Scalar aggregate over empty input (predicate outside the domain).
		{q: &query.Query{Name: "scalarempty", Tables: []string{"fact"},
			Preds: []query.Pred{{Table: "fact", Column: "f_date", Lo: 100000, Hi: 200000}},
			Aggs:  []query.Agg{{Func: query.Sum, Col: fcol("f_val")}, {Func: query.Count}}}},
		// Parallel plan with Exchange.
		{q: &query.Query{Name: "parq", Tables: []string{"fact"},
			GroupBy: []query.ColRef{fcol("f_dim")},
			Aggs:    []query.Agg{{Func: query.Sum, Col: fcol("f_val")}}},
			mutate: func(o *opt.Optimizer) { o.ParallelThreshold = 1 }},
	}
	for i, c := range cases {
		track(runBoth(t, e, c.q, c.cfg, c.mutate, int64(100+i)))
	}

	for _, op := range []plan.Op{
		plan.TableScan, plan.ColumnstoreScan, plan.IndexScan, plan.IndexSeek,
		plan.KeyLookup, plan.Filter, plan.HashJoin, plan.MergeJoin,
		plan.NestedLoopJoin, plan.Sort, plan.Top, plan.HashAggregate,
		plan.StreamAggregate, plan.Exchange,
	} {
		if !seen[op] {
			t.Errorf("directed suite no longer exercises %v; adjust the cases", op)
		}
	}
}

// TestVectorizedMatchesReferenceRandom fuzzes the comparison with randomized
// queries and configurations over the test schema.
func TestVectorizedMatchesReferenceRandom(t *testing.T) {
	e := newEnv(t)
	iters := 120
	if testing.Short() {
		iters = 25
	}
	factCols := []string{"f_dim", "f_val", "f_date"}
	for it := 0; it < iters; it++ {
		rng := util.NewRNG(int64(4000 + it))
		q := &query.Query{Name: "rand", Tables: []string{"fact"}}

		// Random predicates on fact.
		for _, c := range factCols {
			if !rng.Bool(0.5) {
				continue
			}
			lo := rng.Int64Range(0, 300)
			hi := lo
			if rng.Bool(0.6) {
				hi = lo + rng.Int64Range(0, 200)
			}
			q.Preds = append(q.Preds, query.Pred{Table: "fact", Column: c, Lo: lo, Hi: hi})
		}
		// Random join with dim.
		if rng.Bool(0.4) {
			q.Tables = append(q.Tables, "dim")
			q.Joins = []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}}
			if rng.Bool(0.5) {
				q.Preds = append(q.Preds, query.Pred{Table: "dim", Column: "d_cat", Lo: rng.Int64Range(0, 5), Hi: rng.Int64Range(5, 9)})
			}
		}
		// Aggregation, ordering, or plain select.
		switch rng.Intn(3) {
		case 0:
			if rng.Bool(0.7) {
				q.GroupBy = []query.ColRef{{Table: "fact", Column: "f_dim"}}
			}
			q.Aggs = []query.Agg{{Func: query.AggFunc(rng.Intn(5)), Col: query.ColRef{Table: "fact", Column: "f_val"}}}
			if rng.Bool(0.3) {
				q.Aggs = append(q.Aggs, query.Agg{Func: query.Count})
			}
		case 1:
			q.Select = []query.ColRef{{Table: "fact", Column: "f_id"}, {Table: "fact", Column: "f_val"}}
			q.OrderBy = []query.ColRef{{Table: "fact", Column: "f_val"}}
			q.Desc = rng.Bool(0.5)
			if rng.Bool(0.5) {
				q.Limit = 1 + rng.Intn(50)
			}
		default:
			q.Select = []query.ColRef{{Table: "fact", Column: "f_id"}, {Table: "fact", Column: "f_date"}}
		}

		// Random configuration.
		var cfg *catalog.Configuration
		switch rng.Intn(5) {
		case 0:
			// nil: heap only
		case 1:
			cfg = catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{factCols[rng.Intn(len(factCols))]}})
		case 2:
			cfg = catalog.NewConfiguration(&catalog.Index{
				Table: "fact", KeyColumns: []string{factCols[rng.Intn(len(factCols))]}, IncludedColumns: []string{"f_val", "f_id"}})
		case 3:
			cfg = catalog.NewConfiguration(
				&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim", "f_date"}},
				&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}})
		default:
			cfg = catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore})
		}

		var mutate func(*opt.Optimizer)
		switch rng.Intn(4) {
		case 0:
			mutate = func(o *opt.Optimizer) { o.ParallelThreshold = 1 }
		case 1:
			mutate = func(o *opt.Optimizer) {
				o.Model.HashBuildCPU = 1e6
				o.Model.HashProbeCPU = 1e6
			}
		}
		runBoth(t, e, q, cfg, mutate, int64(9000+it))
	}
}
