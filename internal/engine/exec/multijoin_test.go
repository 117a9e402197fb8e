package exec

import (
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/util"
)

// multiJoinQ joins fact and dim on two predicates: the foreign key and a
// value column. The planner attaches the first as the driving Join and
// carries the second in ExtraJoins; every join operator must apply both
// (regression: extra predicates were dropped, returning superset rows).
func multiJoinQ() *query.Query {
	return &query.Query{
		Name:   "mjexec",
		Tables: []string{"fact", "dim"},
		Joins: []query.Join{
			{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"},
			{LeftTable: "fact", LeftColumn: "f_val", RightTable: "dim", RightColumn: "d_cat"},
		},
		Select: []query.ColRef{{Table: "fact", Column: "f_id"}, {Table: "dim", Column: "d_cat"}},
	}
}

// bruteMultiJoin counts fact×dim pairs satisfying every join predicate.
func (e *env) bruteMultiJoin(q *query.Query) int {
	ft, dt := e.db.Table("fact"), e.db.Table("dim")
	want := 0
	for i := 0; i < ft.NumRows(); i++ {
		for j := 0; j < dt.NumRows(); j++ {
			ok := true
			for _, jn := range q.Joins {
				if ft.Value(jn.LeftColumn, i) != dt.Value(jn.RightColumn, j) {
					ok = false
					break
				}
			}
			if ok {
				want++
			}
		}
	}
	return want
}

// TestMultiPredicateJoinRowCounts runs the multi-predicate join through
// every join operator — optimizer-chosen shapes plus hand-built merge and
// plain nested-loop plans — and checks the row count against brute force.
func TestMultiPredicateJoinRowCounts(t *testing.T) {
	e := newEnv(t)
	q := multiJoinQ()
	want := e.bruteMultiJoin(q)
	if want == 0 {
		t.Fatal("degenerate data: no matching pairs")
	}

	plans := e.planVariants(t, q, []*catalog.Configuration{
		nil, // hash join
		// Join index on fact: index nested-loop with an extra predicate.
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val", "f_id"}}),
		// Batch-mode plans.
		catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore}),
	})

	// Hand-built shapes for the operators the optimizer does not pick here.
	scanF := &plan.Node{Op: plan.TableScan, Table: "fact"}
	scanD := &plan.Node{Op: plan.TableScan, Table: "dim"}
	jp := &q.Joins[0]
	extras := []query.Join{q.Joins[1]}
	merge := &plan.Node{Op: plan.MergeJoin, Join: jp, Ann: &plan.Annotations{ExtraJoins: extras}, Kids: [2]*plan.Node{
		{Op: plan.Sort, Ann: &plan.Annotations{SortCols: []query.ColRef{{Table: "fact", Column: "f_dim"}}}, Kids: [2]*plan.Node{scanF}},
		{Op: plan.Sort, Ann: &plan.Annotations{SortCols: []query.ColRef{{Table: "dim", Column: "d_id"}}}, Kids: [2]*plan.Node{scanD}},
	}}
	nlj := &plan.Node{Op: plan.NestedLoopJoin, Join: jp, Ann: &plan.Annotations{ExtraJoins: extras}, Kids: [2]*plan.Node{scanF, scanD}}
	plans = append(plans,
		&plan.Plan{Root: merge, Query: q},
		&plan.Plan{Root: nlj, Query: q},
	)

	seen := map[plan.Op]bool{}
	for i, p := range plans {
		p.Root.Walk(func(n *plan.Node) {
			switch n.Op {
			case plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin:
				seen[n.Op] = true
			}
		})
		r, err := e.exec.Execute(p, util.NewRNG(int64(i)))
		if err != nil {
			t.Fatalf("plan %d: %v\n%s", i, err, p)
		}
		if len(r.Rows) != want {
			t.Fatalf("plan %d: %d rows, brute force says %d — extra join predicate dropped?\n%s",
				i, len(r.Rows), want, p)
		}
	}
	for _, op := range []plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin} {
		if !seen[op] {
			t.Fatalf("suite never exercised %v", op)
		}
	}
}

// TestMultiPredicateINLJCounters: the extra predicate must filter pair
// emission only — the probe-side counters (rows fetched from the index)
// are driven by the driving join alone, matching how the planner prices
// the seek below the join.
func TestMultiPredicateINLJCounters(t *testing.T) {
	e := newEnv(t)
	q := multiJoinQ()
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val", "f_id"}})
	p, err := e.opt.Optimize(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inlj *plan.Node
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.NestedLoopJoin && len(n.ExtraJoins()) > 0 {
			inlj = n
		}
	})
	if inlj == nil {
		t.Skipf("optimizer did not pick INLJ; plan:\n%s", p)
	}
	r, err := e.exec.Execute(p, util.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// Without the fix the executor emitted every seek match: row count would
	// equal the single-predicate join size.
	single := e.bruteMultiJoin(&query.Query{Joins: q.Joins[:1]})
	want := e.bruteMultiJoin(q)
	if len(r.Rows) != want {
		t.Fatalf("INLJ rows %d, want %d (single-predicate join would be %d)", len(r.Rows), want, single)
	}
	if want >= single {
		t.Fatal("test is vacuous: the extra predicate filters nothing")
	}
}
