package exec

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/data"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/util"
)

// env builds a small star schema with skewed, correlated data.
type env struct {
	schema *catalog.Schema
	db     *data.Database
	st     *stats.DatabaseStats
	opt    *opt.Optimizer
	exec   *Executor
}

func newEnv(t testing.TB) *env {
	t.Helper()
	s := catalog.NewSchema("execdb")
	dim := &catalog.Table{Name: "dim", Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.TypeInt},
		{Name: "d_cat", Type: catalog.TypeInt},
	}}
	fact := &catalog.Table{Name: "fact", Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.TypeInt},
		{Name: "f_dim", Type: catalog.TypeInt},
		{Name: "f_val", Type: catalog.TypeInt},
		{Name: "f_date", Type: catalog.TypeInt},
	}}
	s.AddTable(dim)
	s.AddTable(fact)
	rng := util.NewRNG(123)
	db := data.NewDatabase(s)
	dimT := data.BuildTable(dim, rng.Split("dim"), 200, []data.ColumnSpec{
		{Name: "d_id", Gen: data.SequentialGen{}},
		{Name: "d_cat", Gen: data.UniformGen{Lo: 0, Hi: 9}},
	})
	db.AddTable(dimT)
	factT := data.BuildTable(fact, rng.Split("fact"), 8000, []data.ColumnSpec{
		{Name: "f_id", Gen: data.SequentialGen{}},
		{Name: "f_dim", Gen: data.FKGen{ParentKeys: dimT.Column("d_id"), Skew: 1.2}},
		{Name: "f_val", Gen: data.ZipfGen{S: 1.1, N: 500}},
		{Name: "f_date", Gen: data.UniformGen{Lo: 0, Hi: 364}},
	})
	db.AddTable(factT)
	st := stats.BuildDatabaseStats(db, util.NewRNG(9), 512, 32)
	return &env{schema: s, db: db, st: st, opt: opt.New(s, st), exec: New(db)}
}

// bruteFilter returns fact rows matching preds, as (f_id, f_val).
func (e *env) bruteFilter(preds []query.Pred) map[int64]int64 {
	tb := e.db.Table("fact")
	out := map[int64]int64{}
	for r := 0; r < tb.NumRows(); r++ {
		ok := true
		for _, p := range preds {
			if !p.Matches(tb.Column(p.Column)[r]) {
				ok = false
				break
			}
		}
		if ok {
			out[tb.Value("f_id", r)] = tb.Value("f_val", r)
		}
	}
	return out
}

func resultSet(r *Result, keyCol, valCol query.ColRef) map[int64]int64 {
	ki, vi := -1, -1
	for i, c := range r.Cols {
		if c == keyCol {
			ki = i
		}
		if c == valCol {
			vi = i
		}
	}
	out := map[int64]int64{}
	for _, row := range r.Rows {
		out[row[ki]] = row[vi]
	}
	return out
}

func TestScanMatchesBruteForce(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "f1",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 10, Hi: 30}},
		Select: []query.ColRef{{Table: "fact", Column: "f_id"}, {Table: "fact", Column: "f_val"}},
	}
	p, err := e.opt.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.exec.Execute(p, util.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	want := e.bruteFilter(q.Preds)
	got := resultSet(r, query.ColRef{Table: "fact", Column: "f_id"}, query.ColRef{Table: "fact", Column: "f_val"})
	if len(got) != len(want) {
		t.Fatalf("row counts differ: got %d want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("value mismatch for id %d", k)
		}
	}
	if r.WorkCost <= 0 || r.MeasuredCost <= 0 {
		t.Fatal("costs must be positive")
	}
}

// planVariants returns plans for the same query under different configs.
func (e *env) planVariants(t *testing.T, q *query.Query, cfgs []*catalog.Configuration) []*plan.Plan {
	t.Helper()
	var out []*plan.Plan
	for _, cfg := range cfgs {
		p, err := e.opt.Optimize(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func canonical(r *Result) []string {
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var sb strings.Builder
		for j, c := range r.Cols {
			if strings.HasPrefix(c.Column, "#rid") {
				continue // rids are physical, not logical, output
			}
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(c.String())
			sb.WriteByte('=')
			sb.WriteString(string(rune('0' + int(row[j]%10))))
			// include full value
			sb.WriteString("|")
			sb.WriteString(strings.TrimSpace(itoa(row[j])))
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestAllPlanShapesAgreeOnResults(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "agree",
		Tables: []string{"fact", "dim"},
		Preds: []query.Pred{
			{Table: "fact", Column: "f_date", Lo: 50, Hi: 80},
			{Table: "dim", Column: "d_cat", Lo: 3, Hi: 3},
		},
		Joins:   []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
		GroupBy: []query.ColRef{{Table: "dim", Column: "d_cat"}},
		Aggs: []query.Agg{
			{Func: query.Count},
			{Func: query.Sum, Col: query.ColRef{Table: "fact", Column: "f_val"}},
		},
	}
	cfgs := []*catalog.Configuration{
		nil,
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}, IncludedColumns: []string{"f_dim", "f_val"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val", "f_date"}},
			&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore}),
	}
	plans := e.planVariants(t, q, cfgs)
	var ref []string
	fps := map[uint64]bool{}
	for i, p := range plans {
		fps[p.Fingerprint()] = true
		r, err := e.exec.Execute(p, util.NewRNG(int64(i)))
		if err != nil {
			t.Fatalf("plan %d: %v\n%s", i, err, p)
		}
		rows := canonical(r)
		if ref == nil {
			ref = rows
			continue
		}
		if len(rows) != len(ref) {
			t.Fatalf("plan %d row count %d != %d\n%s", i, len(rows), len(ref), p)
		}
		for j := range rows {
			if rows[j] != ref[j] {
				t.Fatalf("plan %d result differs at row %d:\n%s\nvs\n%s\n%s", i, j, rows[j], ref[j], p)
			}
		}
	}
	if len(fps) < 3 {
		t.Fatalf("configurations should induce plan diversity, got %d distinct plans", len(fps))
	}
}

func TestSeekCheaperThanScanInTruth(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "cheap",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 5, Hi: 5}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}},
	}
	scanPlan, _ := e.opt.Optimize(q, nil)
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}, IncludedColumns: []string{"f_val"}}
	seekPlan, _ := e.opt.Optimize(q, catalog.NewConfiguration(ix))
	rScan, err := e.exec.Execute(scanPlan, util.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	rSeek, err := e.exec.Execute(seekPlan, util.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if rSeek.WorkCost >= rScan.WorkCost {
		t.Fatalf("covering seek should be truly cheaper: %v vs %v", rSeek.WorkCost, rScan.WorkCost)
	}
	if len(rSeek.Rows) != len(rScan.Rows) {
		t.Fatal("seek and scan must return the same rows")
	}
}

func TestMedianCostStableUnderNoise(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "m",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 100}},
		Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
	}
	p, _ := e.opt.Optimize(q, nil)
	m1, first, err := e.exec.MedianCost(p, util.NewRNG(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := e.exec.Execute(p, util.NewRNG(10).SplitInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.MeasuredCost != r0.MeasuredCost {
		t.Fatalf("first result measured %v, want run 0's %v", first.MeasuredCost, r0.MeasuredCost)
	}
	r, _ := e.exec.Execute(p, util.NewRNG(11))
	// Median of 5 noisy runs should be within ~15% of the deterministic work.
	if m1 < r.WorkCost*0.85 || m1 > r.WorkCost*1.15 {
		t.Fatalf("median %v too far from work %v", m1, r.WorkCost)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:    "topq",
		Tables:  []string{"fact"},
		Preds:   []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 50}},
		Select:  []query.ColRef{{Table: "fact", Column: "f_id"}, {Table: "fact", Column: "f_val"}},
		OrderBy: []query.ColRef{{Table: "fact", Column: "f_val"}},
		Desc:    true,
		Limit:   5,
	}
	p, _ := e.opt.Optimize(q, nil)
	r, err := e.exec.Execute(p, util.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("limit 5, got %d rows", len(r.Rows))
	}
	vi := -1
	for i, c := range r.Cols {
		if c.Column == "f_val" {
			vi = i
		}
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i][vi] > r.Rows[i-1][vi] {
			t.Fatal("descending order violated")
		}
	}
}

func TestAggregates(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:    "aggq",
		Tables:  []string{"fact"},
		Preds:   []query.Pred{{Table: "fact", Column: "f_dim", Lo: 0, Hi: 10}},
		GroupBy: []query.ColRef{{Table: "fact", Column: "f_dim"}},
		Aggs: []query.Agg{
			{Func: query.Count},
			{Func: query.Min, Col: query.ColRef{Table: "fact", Column: "f_val"}},
			{Func: query.Max, Col: query.ColRef{Table: "fact", Column: "f_val"}},
			{Func: query.Avg, Col: query.ColRef{Table: "fact", Column: "f_val"}},
		},
	}
	p, _ := e.opt.Optimize(q, nil)
	r, err := e.exec.Execute(p, util.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// Brute force.
	tb := e.db.Table("fact")
	type ag struct {
		cnt, min, max, sum int64
	}
	want := map[int64]*ag{}
	for i := 0; i < tb.NumRows(); i++ {
		d := tb.Value("f_dim", i)
		if d < 0 || d > 10 {
			continue
		}
		v := tb.Value("f_val", i)
		g, ok := want[d]
		if !ok {
			g = &ag{min: v, max: v}
			want[d] = g
		}
		g.cnt++
		g.sum += v
		if v < g.min {
			g.min = v
		}
		if v > g.max {
			g.max = v
		}
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("group count %d != %d", len(r.Rows), len(want))
	}
	for _, row := range r.Rows {
		g := want[row[0]]
		if g == nil {
			t.Fatalf("unexpected group %d", row[0])
		}
		if row[1] != g.cnt || row[2] != g.min || row[3] != g.max || row[4] != g.sum/g.cnt {
			t.Fatalf("aggregate mismatch for group %d: %v vs %+v", row[0], row, g)
		}
	}
}

func TestScalarAggregateOnEmptyInput(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "empty",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 9999, Hi: 10000}},
		Aggs:   []query.Agg{{Func: query.Count}},
	}
	p, _ := e.opt.Optimize(q, nil)
	r, err := e.exec.Execute(p, util.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != 0 {
		t.Fatalf("scalar count over empty input: %v", r.Rows)
	}
}

func TestIndexNLJExecution(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "nljq",
		Tables: []string{"dim", "fact"},
		Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 3, Hi: 5}},
		Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}, {Table: "dim", Column: "d_cat"}},
	}
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}})
	p, err := e.opt.Optimize(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hasNLJ := false
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.NestedLoopJoin {
			hasNLJ = true
		}
	})
	if !hasNLJ {
		t.Skipf("optimizer did not pick NLJ for this data; plan:\n%s", p)
	}
	r, err := e.exec.Execute(p, util.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// Brute force count.
	tb := e.db.Table("fact")
	wantCount := 0
	for i := 0; i < tb.NumRows(); i++ {
		d := tb.Value("f_dim", i)
		if d >= 3 && d <= 5 {
			wantCount++
		}
	}
	if len(r.Rows) != wantCount {
		t.Fatalf("NLJ row count %d != %d", len(r.Rows), wantCount)
	}
}

func TestActualsAnnotated(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "ann",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 10}},
		Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
	}
	p, _ := e.opt.Optimize(q, nil)
	r, _ := e.exec.Execute(p, util.NewRNG(8))
	nodes := 0
	p.Root.Walk(func(*plan.Node) { nodes++ })
	if len(r.Actuals) != nodes {
		t.Fatalf("%d actuals for %d plan nodes", len(r.Actuals), nodes)
	}
	var sum float64
	for i, a := range r.Actuals {
		if a.Cost <= 0 {
			t.Fatalf("node %d missing actual cost", i)
		}
		sum += a.Cost
	}
	if diff := sum - r.MeasuredCost; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("node actuals %v != measured %v", sum, r.MeasuredCost)
	}
	if r.Actuals[0].Rows != float64(len(r.Rows)) {
		t.Fatalf("root actual rows %v, result has %d rows", r.Actuals[0].Rows, len(r.Rows))
	}
}

// TestConcurrentExecuteLeavesCachedPlanIntact runs one cached what-if plan
// through Execute from many goroutines at once (run it under -race): each
// run must measure exactly what a serial run with the same seed measures,
// and the shared plan must render and fingerprint as before.
func TestConcurrentExecuteLeavesCachedPlanIntact(t *testing.T) {
	e := newEnv(t)
	q := &query.Query{
		Name:   "shared",
		Tables: []string{"dim", "fact"},
		Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 3, Hi: 5}},
		Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}, {Table: "dim", Column: "d_cat"}},
	}
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}})
	wi := opt.NewWhatIf(e.opt)
	p, err := wi.Plan(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := wi.Plan(q, cfg); again != p {
		t.Fatal("the what-if cache did not return the cached plan")
	}
	text, fp := p.String(), p.Fingerprint()

	const workers = 8
	serial := make([]*Result, workers)
	for i := range serial {
		if serial[i], err = e.exec.Execute(p, util.NewRNG(int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.exec.Execute(p, util.NewRNG(int64(100+i)))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].MeasuredCost != serial[i].MeasuredCost {
			t.Fatalf("run %d measured %v concurrently, %v serially", i, got[i].MeasuredCost, serial[i].MeasuredCost)
		}
		if !slices.Equal(got[i].Actuals, serial[i].Actuals) {
			t.Fatalf("run %d actuals %v concurrently, %v serially", i, got[i].Actuals, serial[i].Actuals)
		}
	}
	if p.String() != text || p.Fingerprint() != fp {
		t.Fatalf("executing changed the cached plan:\n%s\nwas\n%s", p, text)
	}
}

func TestEstimateVsActualDiverge(t *testing.T) {
	// The whole premise: estimated and true cost must disagree in a
	// nontrivial fraction of plans.
	e := newEnv(t)
	q := &query.Query{
		Name:   "div",
		Tables: []string{"fact"},
		Preds: []query.Pred{
			{Table: "fact", Column: "f_val", Lo: 1, Hi: 3}, // Zipf head: underestimated by uniform buckets
			{Table: "fact", Column: "f_date", Lo: 0, Hi: 100},
		},
		Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
	}
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_val"}}
	p, _ := e.opt.Optimize(q, catalog.NewConfiguration(ix))
	r, err := e.exec.Execute(p, util.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.WorkCost / p.EstTotalCost
	if ratio > 0.8 && ratio < 1.25 {
		t.Logf("note: estimate close to truth for this plan (ratio %.2f)", ratio)
	}
	// At minimum the two are not identical.
	if r.WorkCost == p.EstTotalCost {
		t.Fatal("estimated and true cost identical — no learning signal")
	}
}

func TestIndexCacheReuse(t *testing.T) {
	e := newEnv(t)
	ix := &catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}
	t1, err := e.exec.Index(ix)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := e.exec.Index(ix)
	if t1 != t2 {
		t.Fatal("index should be cached")
	}
	e.exec.DropIndex(ix)
	t3, _ := e.exec.Index(ix)
	if t3 == t1 {
		t.Fatal("dropped index should be rebuilt")
	}
	if _, err := e.exec.Index(&catalog.Index{Table: "ghost", KeyColumns: []string{"x"}}); err == nil {
		t.Fatal("index on missing table must fail")
	}
	if _, err := e.exec.Index(&catalog.Index{Table: "fact", KeyColumns: []string{"nope"}}); err == nil {
		t.Fatal("index on missing column must fail")
	}
}
