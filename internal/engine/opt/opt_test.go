package opt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/data"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/util"
)

// buildEnv creates a two-table star: fact(100k rows) -> dim(1k rows).
func buildEnv(t testing.TB) (*catalog.Schema, *data.Database, *stats.DatabaseStats) {
	if t != nil {
		t.Helper()
	}
	s := catalog.NewSchema("db")
	dim := &catalog.Table{Name: "dim", Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.TypeInt},
		{Name: "d_cat", Type: catalog.TypeInt},
	}}
	fact := &catalog.Table{Name: "fact", Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.TypeInt},
		{Name: "f_dim", Type: catalog.TypeInt},
		{Name: "f_val", Type: catalog.TypeInt},
		{Name: "f_date", Type: catalog.TypeInt},
		{Name: "f_pad", Type: catalog.TypeString},
	}}
	s.AddTable(dim)
	s.AddTable(fact)
	rng := util.NewRNG(77)
	db := data.NewDatabase(s)
	dimT := data.BuildTable(dim, rng.Split("dim"), 1000, []data.ColumnSpec{
		{Name: "d_id", Gen: data.SequentialGen{}},
		{Name: "d_cat", Gen: data.UniformGen{Lo: 0, Hi: 19}},
	})
	db.AddTable(dimT)
	factT := data.BuildTable(fact, rng.Split("fact"), 50000, []data.ColumnSpec{
		{Name: "f_id", Gen: data.SequentialGen{}},
		{Name: "f_dim", Gen: data.FKGen{ParentKeys: dimT.Column("d_id"), Skew: 1.1}},
		{Name: "f_val", Gen: data.ZipfGen{S: 1.1, N: 10000}},
		{Name: "f_date", Gen: data.UniformGen{Lo: 0, Hi: 3650}},
		{Name: "f_pad", Gen: data.UniformGen{Lo: 0, Hi: 100}},
	})
	db.AddTable(factT)
	ds := stats.BuildDatabaseStats(db, util.NewRNG(78), stats.DefaultSampleSize, stats.DefaultBuckets)
	return s, db, ds
}

func pointQuery() *query.Query {
	return &query.Query{
		Name:   "pt",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 100, Hi: 100}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}},
	}
}

func joinQuery() *query.Query {
	return &query.Query{
		Name:    "jq",
		Tables:  []string{"fact", "dim"},
		Preds:   []query.Pred{{Table: "dim", Column: "d_cat", Lo: 3, Hi: 3}},
		Joins:   []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
		GroupBy: []query.ColRef{{Table: "dim", Column: "d_cat"}},
		Aggs:    []query.Agg{{Func: query.Sum, Col: query.ColRef{Table: "fact", Column: "f_val"}}},
	}
}

func hasOp(p *plan.Plan, op plan.Op) bool {
	found := false
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == op {
			found = true
		}
	})
	return found
}

func TestTableScanWithoutIndexes(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	p, err := o.Optimize(pointQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.TableScan) || hasOp(p, plan.IndexSeek) {
		t.Fatalf("expected plain scan plan:\n%s", p)
	}
	if p.EstTotalCost <= 0 {
		t.Fatal("plan must have positive cost")
	}
}

func TestSeekChosenWithSelectiveIndex(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := pointQuery()
	heap, _ := o.Optimize(q, nil)
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}, IncludedColumns: []string{"f_val"}}
	p, err := o.Optimize(q, catalog.NewConfiguration(ix))
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.IndexSeek) {
		t.Fatalf("covering index should be seeked:\n%s", p)
	}
	if hasOp(p, plan.KeyLookup) {
		t.Fatalf("covering index must not need lookups:\n%s", p)
	}
	if p.EstTotalCost >= heap.EstTotalCost {
		t.Fatalf("seek (%v) should beat heap scan (%v)", p.EstTotalCost, heap.EstTotalCost)
	}
}

func TestNonCoveringSeekAddsKeyLookup(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := pointQuery() // needs f_val, not covered below
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}
	p, err := o.Optimize(q, catalog.NewConfiguration(ix))
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.IndexSeek) || !hasOp(p, plan.KeyLookup) {
		t.Fatalf("expected seek+lookup:\n%s", p)
	}
}

func TestUnselectivePredicatePrefersScan(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := &query.Query{
		Name:   "wide",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 3600}}, // ~99% of rows
		Select: []query.ColRef{{Table: "fact", Column: "f_pad"}},
	}
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}
	p, err := o.Optimize(q, catalog.NewConfiguration(ix))
	if err != nil {
		t.Fatal(err)
	}
	if hasOp(p, plan.KeyLookup) {
		t.Fatalf("lookup for 99%% of rows should lose to a scan:\n%s", p)
	}
}

func TestColumnstoreChosenForWideAggregation(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := &query.Query{
		Name:    "agg",
		Tables:  []string{"fact"},
		GroupBy: []query.ColRef{{Table: "fact", Column: "f_date"}},
		Aggs:    []query.Agg{{Func: query.Sum, Col: query.ColRef{Table: "fact", Column: "f_val"}}},
	}
	cs := &catalog.Index{Table: "fact", Kind: catalog.Columnstore}
	p, err := o.Optimize(q, catalog.NewConfiguration(cs))
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.ColumnstoreScan) {
		t.Fatalf("columnstore should win for scans+agg:\n%s", p)
	}
	// Batch mode must propagate to the aggregate.
	batchAgg := false
	p.Root.Walk(func(n *plan.Node) {
		if (n.Op == plan.HashAggregate || n.Op == plan.StreamAggregate) && n.Mode == plan.Batch {
			batchAgg = true
		}
	})
	if !batchAgg {
		t.Fatalf("aggregate above columnstore should run batch:\n%s", p)
	}
}

func TestJoinPlanShape(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	p, err := o.Optimize(joinQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.HashJoin) && !hasOp(p, plan.MergeJoin) && !hasOp(p, plan.NestedLoopJoin) {
		t.Fatalf("expected some join:\n%s", p)
	}
	if !hasOp(p, plan.HashAggregate) && !hasOp(p, plan.StreamAggregate) {
		t.Fatalf("expected aggregation:\n%s", p)
	}
}

func TestIndexNLJChosenWithJoinIndex(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	// Very selective dim filter -> few outer rows -> index NLJ into fact.
	q := &query.Query{
		Name:   "nlj",
		Tables: []string{"dim", "fact"},
		Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 5, Hi: 5}},
		Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}},
	}
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}}
	p, err := o.Optimize(q, catalog.NewConfiguration(ix))
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.NestedLoopJoin) || !hasOp(p, plan.IndexSeek) {
		t.Fatalf("expected index NLJ:\n%s", p)
	}
}

func TestParallelPlanForExpensiveQuery(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	o.ParallelThreshold = 100 // force the parallel alternative to be considered
	p, err := o.Optimize(joinQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.Exchange) {
		t.Fatalf("expected parallel plan with exchange:\n%s", p)
	}
	par := false
	p.Root.Walk(func(n *plan.Node) {
		if n.Op != plan.Exchange && n.Par == plan.Parallel {
			par = true
		}
	})
	if !par {
		t.Fatal("operators below exchange should be parallel")
	}
}

func TestSmallQueryStaysSerial(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := &query.Query{
		Name:   "tiny",
		Tables: []string{"dim"},
		Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 7, Hi: 7}},
		Select: []query.ColRef{{Table: "dim", Column: "d_cat"}},
	}
	p, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hasOp(p, plan.Exchange) {
		t.Fatalf("tiny query should stay serial:\n%s", p)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := pointQuery()
	q.OrderBy = []query.ColRef{{Table: "fact", Column: "f_val"}}
	q.Limit = 10
	p, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, plan.Sort) || !hasOp(p, plan.Top) {
		t.Fatalf("expected sort+top:\n%s", p)
	}
	if p.Root.Op != plan.Top && p.Root.Op != plan.Exchange {
		t.Fatalf("top should be at/near root:\n%s", p)
	}
}

func TestEstimatesPopulated(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	p, err := o.Optimize(joinQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	p.Root.Walk(func(n *plan.Node) {
		if n.EstCost < 0 || n.EstRows < 0 {
			t.Fatalf("negative estimates on %s", n.KeyName())
		}
		sum += n.EstCost
	})
	if diff := sum - p.EstTotalCost; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("EstTotalCost %v != node sum %v", p.EstTotalCost, sum)
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := &query.Query{Name: "bad", Tables: []string{"ghost"}, Select: []query.ColRef{{Table: "ghost", Column: "x"}}}
	if _, err := o.Optimize(q, nil); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestWhatIfCaching(t *testing.T) {
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	q := pointQuery()
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})
	p1, err := w.Plan(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := w.Plan(q, cfg)
	if p1 != p2 {
		t.Fatal("cache should return the same plan object")
	}
	calls, hits := w.Stats()
	if calls != 2 || hits != 1 {
		t.Fatalf("calls=%d hits=%d", calls, hits)
	}
	// Different configuration misses.
	if p3, _ := w.Plan(q, nil); p3 == p1 {
		t.Fatal("different config must not hit cache")
	}
	w.Reset()
	if calls, hits = w.Stats(); calls != 0 || hits != 0 {
		t.Fatal("reset should clear stats")
	}
}

func TestSeekablePrefix(t *testing.T) {
	ix := &catalog.Index{Table: "t", KeyColumns: []string{"a", "b", "c"}}
	preds := []query.Pred{
		{Table: "t", Column: "b", Lo: 1, Hi: 5},
		{Table: "t", Column: "a", Lo: 2, Hi: 2},
		{Table: "t", Column: "d", Lo: 0, Hi: 9},
	}
	seek, rest := seekablePrefix(ix, preds)
	// a (eq) then b (range, ends prefix); c unmatched; d residual.
	if len(seek) != 2 || seek[0].Column != "a" || seek[1].Column != "b" {
		t.Fatalf("seek prefix: %v", seek)
	}
	if len(rest) != 1 || rest[0].Column != "d" {
		t.Fatalf("rest: %v", rest)
	}
	// No leading-column predicate: nothing seekable.
	seek, rest = seekablePrefix(ix, []query.Pred{{Table: "t", Column: "c", Lo: 1, Hi: 1}})
	if len(seek) != 0 || len(rest) != 1 {
		t.Fatalf("non-prefix pred should not seek: %v %v", seek, rest)
	}
}

func TestDeterministicPlans(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	cfg := catalog.NewConfiguration(
		&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}},
		&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}},
	)
	p1, _ := o.Optimize(joinQuery(), cfg)
	p2, _ := o.Optimize(joinQuery(), cfg)
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatalf("same inputs must give same plan:\n%s\nvs\n%s", p1, p2)
	}
	if !strings.Contains(p1.String(), "Plan for jq") {
		t.Fatal("plan header")
	}
}

// buildChainEnv creates a 12-table chain t0 -> t1 -> ... -> t11 to exercise
// the greedy join path (beyond the DP table limit).
func buildChainEnv(t *testing.T, n int) (*catalog.Schema, *stats.DatabaseStats, *query.Query) {
	t.Helper()
	s := catalog.NewSchema("chain")
	db := data.NewDatabase(s)
	rng := util.NewRNG(55)
	var prevKeys []int64
	q := &query.Query{Name: "chainq", Weight: 1}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		meta := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "id", Type: catalog.TypeInt},
			{Name: "fk", Type: catalog.TypeInt},
			{Name: "v", Type: catalog.TypeInt},
		}}
		s.AddTable(meta)
		rows := 200
		specs := []data.ColumnSpec{
			{Name: "id", Gen: data.SequentialGen{}},
			{Name: "v", Gen: data.UniformGen{Lo: 0, Hi: 99}},
		}
		if i == 0 {
			specs = append(specs, data.ColumnSpec{Name: "fk", Gen: data.UniformGen{Lo: 0, Hi: 10}})
		} else {
			specs = append(specs, data.ColumnSpec{Name: "fk", Gen: data.FKGen{ParentKeys: prevKeys}})
		}
		tb := data.BuildTable(meta, rng.Split(name), rows, specs)
		db.AddTable(tb)
		prevKeys = tb.Column("id")
		q.Tables = append(q.Tables, name)
		if i > 0 {
			q.Joins = append(q.Joins, query.Join{
				LeftTable: name, LeftColumn: "fk",
				RightTable: fmt.Sprintf("t%d", i-1), RightColumn: "id",
			})
		}
	}
	q.Preds = []query.Pred{{Table: "t0", Column: "v", Lo: 0, Hi: 20}}
	q.Aggs = []query.Agg{{Func: query.Count}}
	ds := stats.BuildDatabaseStats(db, util.NewRNG(56), 256, 16)
	return s, ds, q
}

func TestGreedyJoinBeyondDPLimit(t *testing.T) {
	s, ds, q := buildChainEnv(t, 12)
	o := New(s, ds)
	if o.DPTableLimit >= 12 {
		o.DPTableLimit = 10
	}
	p, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All 12 tables appear exactly once as scan leaves.
	seen := map[string]int{}
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.TableScan || n.Op == plan.IndexSeek || n.Op == plan.IndexScan || n.Op == plan.ColumnstoreScan {
			seen[n.Table]++
		}
	})
	for i := 0; i < 12; i++ {
		tn := fmt.Sprintf("t%d", i)
		if seen[tn] != 1 {
			t.Fatalf("table %s appears %d times:\n%s", tn, seen[tn], p)
		}
	}
	// The same query fits DP at a higher limit and yields a valid plan too;
	// greedy must not be catastrophically worse (within 10x).
	o2 := New(s, ds)
	o2.DPTableLimit = 12
	p2, err := o2.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstTotalCost > 10*p2.EstTotalCost {
		t.Fatalf("greedy plan 10x worse than DP: %v vs %v", p.EstTotalCost, p2.EstTotalCost)
	}
}

func TestAddingIndexNeverRaisesEstimatedCost(t *testing.T) {
	// The planner picks the cheapest alternative, so enlarging the
	// configuration can only keep or lower the estimated cost.
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	queries := []*query.Query{pointQuery(), joinQuery()}
	ixs := []*catalog.Index{
		{Table: "fact", KeyColumns: []string{"f_date"}},
		{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}},
		{Table: "dim", KeyColumns: []string{"d_cat"}},
		{Table: "fact", Kind: catalog.Columnstore},
	}
	for _, q := range queries {
		cfg := catalog.NewConfiguration()
		prev, err := o.Optimize(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range ixs {
			cfg = cfg.Clone().Add(ix)
			p, err := o.Optimize(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.EstTotalCost > prev.EstTotalCost*1.0001 {
				t.Fatalf("%s: adding %s raised estimated cost %v -> %v",
					q.Name, ix.ID(), prev.EstTotalCost, p.EstTotalCost)
			}
			prev = p
		}
	}
}

// pathSuite returns a query/config mix covering every access-path shape:
// heap scan, covering index scan, seek, seek+lookup+filter, columnstore,
// joins (shared tables across queries), and a parallel-eligible plan.
func pathSuite() ([]*query.Query, []*catalog.Configuration) {
	qs := []*query.Query{
		pointQuery(),
		joinQuery(),
		{
			Name:   "range",
			Tables: []string{"fact"},
			Preds: []query.Pred{
				{Table: "fact", Column: "f_date", Lo: 0, Hi: 1000},
				{Table: "fact", Column: "f_val", Lo: 1, Hi: 50},
			},
			Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
		},
		{
			Name:    "wide",
			Tables:  []string{"fact"},
			Preds:   []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 3650}},
			GroupBy: []query.ColRef{{Table: "fact", Column: "f_dim"}},
			Aggs:    []query.Agg{{Func: query.Sum, Col: query.ColRef{Table: "fact", Column: "f_val"}}},
		},
	}
	cfgs := []*catalog.Configuration{
		nil,
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}, IncludedColumns: []string{"f_val"}}),
		catalog.NewConfiguration(
			&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}},
			&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore}),
	}
	return qs, cfgs
}

// TestOptimizeReadsStatsAndModelEveryCall: the optimizer keeps nothing
// derived from Stats or Model between calls, so once either is swapped or
// changed in place, every plan equals a fresh optimizer's bit for bit. Each
// step must also change some plan's cost, or it would test nothing.
func TestOptimizeReadsStatsAndModelEveryCall(t *testing.T) {
	s, db, ds := buildEnv(t)
	qs, cfgs := pathSuite()
	o := New(s, ds)
	planAll := func(o *Optimizer) []*plan.Plan {
		var out []*plan.Plan
		for _, q := range qs {
			for _, cfg := range cfgs {
				p, err := o.Optimize(q, cfg)
				if err != nil {
					t.Fatalf("%s/%q: %v", q.Name, fpOf(cfg), err)
				}
				out = append(out, p)
			}
		}
		return out
	}
	prev := planAll(o)
	check := func(step string) {
		t.Helper()
		fresh := New(s, o.Stats)
		fresh.Model = o.Model
		got, want := planAll(o), planAll(fresh)
		changed := 0
		for i := range got {
			comparePlans(t, fmt.Sprintf("%s: %s/%q", step, qs[i/len(cfgs)].Name, fpOf(cfgs[i%len(cfgs)])), got[i], want[i])
			if math.Float64bits(got[i].EstTotalCost) != math.Float64bits(prev[i].EstTotalCost) {
				changed++
			}
		}
		if changed == 0 {
			t.Fatalf("%s: no plan's cost changed", step)
		}
		prev = got
	}

	o.Stats = stats.BuildDatabaseStats(db, util.NewRNG(1234), 256, 16)
	check("stats swapped")
	m := *o.Model
	m.LookupCPU *= 4
	o.Model = &m
	check("model swapped")

	// In place: the same *DatabaseStats and *Model, changed under the
	// optimizer.
	o.Stats.Tables["fact"].RowCount *= 10
	check("row count changed in place")
	fact := db.Table("fact")
	o.Stats.Tables["fact"].Columns["f_date"] = stats.BuildColumnStats("fact", "f_date", fact.Column("f_date"), util.NewRNG(99), 64, 4)
	check("column stats replaced in place")
	o.Model.ByteCPU *= 3
	check("model changed in place")
}
