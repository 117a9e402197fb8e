package opt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/race"
	"repro/internal/util"
	"repro/internal/workload"
)

// Regression tests for the join-planning bugfix sweep, plus the
// arena aliasing invariants, the premises of the node's two child slots and
// the planner's warm-path allocation budget.

// planJoins collects every join predicate attached to any join node of a
// plan — the driving Join plus the carried ExtraJoins.
func planJoins(p *plan.Plan) []query.Join {
	var out []query.Join
	p.Root.Walk(func(n *plan.Node) {
		switch n.Op {
		case plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin:
			if n.Join != nil {
				out = append(out, *n.Join)
			}
			out = append(out, n.ExtraJoins()...)
		}
	})
	return out
}

// TestJoinPlanCarriesAllPredicates: when two tables are connected by more
// than one join predicate, every predicate must appear in the emitted plan.
// The planner prices all of them into the output cardinality; dropping one
// from the plan made the executor return superset rows (regression: only
// joins[0] was attached).
func TestJoinPlanCarriesAllPredicates(t *testing.T) {
	s, _, ds := buildEnv(t)
	q := multiJoinQuery()
	cfgs := []*catalog.Configuration{
		nil,
		// Force an index NLJ shape: join index on the fact side.
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val", "f_id"}}),
		// Columnstore outer: batch-mode joins.
		catalog.NewConfiguration(&catalog.Index{Table: "dim", Kind: catalog.Columnstore}),
	}
	for ci, cfg := range cfgs {
		o := New(s, ds)
		p, err := o.Optimize(q, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		got := planJoins(p)
		for _, want := range q.Joins {
			found := 0
			for _, g := range got {
				if g == want {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("cfg %d: join %s.%s=%s.%s appears %d times in plan (want 1):\n%s",
					ci, want.LeftTable, want.LeftColumn, want.RightTable, want.RightColumn, found, p)
			}
		}
		if len(got) != len(q.Joins) {
			t.Fatalf("cfg %d: plan carries %d join predicates, query has %d:\n%s", ci, len(got), len(q.Joins), p)
		}
	}
}

// findINLJ returns the nested-loop join node whose inner subtree is an index
// seek (the index NLJ shape), or nil.
func findINLJ(p *plan.Plan) *plan.Node {
	var out *plan.Node
	p.Root.Walk(func(n *plan.Node) {
		if n.Op != plan.NestedLoopJoin || len(n.Children()) != 2 {
			return
		}
		seek := n.Kids[1]
		for len(seek.Children()) > 0 {
			seek = seek.Kids[0]
		}
		if seek.Op == plan.IndexSeek {
			out = n
		}
	})
	return out
}

// TestIndexNLJCostConventions pins the indexNLJ join node to bestJoin's
// costing conventions (regression: the node was costed with no Probes, no
// RowsIn2, and never ran in batch mode over a columnstore outer).
func TestIndexNLJCostConventions(t *testing.T) {
	s, _, ds := buildEnv(t)
	q := inljQuery()
	joinIndex := func() *catalog.Index {
		return &catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}}
	}

	t.Run("row-mode", func(t *testing.T) {
		o := New(s, ds)
		p, err := o.Optimize(q, catalog.NewConfiguration(joinIndex()))
		if err != nil {
			t.Fatal(err)
		}
		n := findINLJ(p)
		if n == nil {
			t.Fatalf("expected an index NLJ plan:\n%s", p)
		}
		if n.Mode != plan.Row {
			t.Fatalf("b-tree outer should stay row mode, got %v", n.Mode)
		}
		// The join node is costed on the probes branch: one probe dispatch
		// per outer row plus per-row output cost. Reconstruct the args the
		// planner must have used and require bit-equality.
		outer := n.Kids[0]
		want := o.Model.OpCost(n.Op, n.Mode, n.Par, cost.Args{
			RowsIn: outer.EstRows, RowsOut: n.EstRows,
			Probes: outer.EstRows, Height: 1,
		})
		if math.Float64bits(n.EstCost) != math.Float64bits(want) {
			t.Fatalf("INLJ join node cost %v, want probes-branch cost %v", n.EstCost, want)
		}
		// And the probe charge must actually be present: zeroing Probes must
		// strictly lower the modeled cost.
		without := o.Model.OpCost(n.Op, n.Mode, n.Par, cost.Args{
			RowsIn: outer.EstRows, RowsOut: n.EstRows,
		})
		if want <= without {
			t.Fatalf("probe charge missing: with probes %v <= without %v", want, without)
		}
	})

	t.Run("batch-over-columnstore-outer", func(t *testing.T) {
		o := New(s, ds)
		p, err := o.Optimize(q, catalog.NewConfiguration(joinIndex(),
			&catalog.Index{Table: "dim", Kind: catalog.Columnstore}))
		if err != nil {
			t.Fatal(err)
		}
		n := findINLJ(p)
		if n == nil {
			t.Fatalf("expected an index NLJ plan:\n%s", p)
		}
		if n.Kids[0].Op != plan.ColumnstoreScan {
			t.Fatalf("expected a columnstore outer:\n%s", p)
		}
		if n.Mode != plan.Batch {
			t.Fatalf("INLJ over a columnstore outer must run batch mode, got %v:\n%s", n.Mode, p)
		}
	})
}

// TestSeekablePrefixPrefersEquality: when a range and an equality constrain
// the same key column, the equality must win — a range ends the seekable
// prefix, an equality keeps it extensible (regression: the first matching
// predicate was taken, so pred order could truncate the prefix).
func TestSeekablePrefixPrefersEquality(t *testing.T) {
	ix := &catalog.Index{Table: "t", KeyColumns: []string{"a", "b"}}
	preds := []query.Pred{
		{Table: "t", Column: "a", Lo: 0, Hi: 100}, // range on a, listed first
		{Table: "t", Column: "a", Lo: 7, Hi: 7},   // equality on a
		{Table: "t", Column: "b", Lo: 3, Hi: 3},   // equality on b
	}
	seek, rest := seekablePrefix(ix, preds)
	if len(seek) != 2 || !seek[0].IsEquality() || seek[0].Column != "a" || seek[1].Column != "b" {
		t.Fatalf("equality should be preferred and extend the prefix, got seek=%v rest=%v", seek, rest)
	}
	if len(rest) != 1 || rest[0].IsEquality() {
		t.Fatalf("the range should become a residual predicate, got rest=%v", rest)
	}

	// With only ranges on the column, the first one is still taken and ends
	// the prefix — unchanged behavior.
	seek, rest = seekablePrefix(ix, []query.Pred{
		{Table: "t", Column: "a", Lo: 0, Hi: 100},
		{Table: "t", Column: "a", Lo: 50, Hi: 200},
		{Table: "t", Column: "b", Lo: 3, Hi: 3},
	})
	if len(seek) != 1 || seek[0].Hi != 100 {
		t.Fatalf("first range should be chosen and end the prefix, got seek=%v", seek)
	}
	if len(rest) != 2 {
		t.Fatalf("got rest=%v", rest)
	}
}

// TestJoinCountLimit: the planner keeps sets of join predicates as 64-bit
// masks, so a query with 65 of them gets an error from Optimize and from
// WhatIf.Plan, which caches nothing for it, while one with 64 still plans
// as the reference does. Only repeated predicates reach these counts.
func TestJoinCountLimit(t *testing.T) {
	s, _, ds := buildEnv(t)
	withJoins := func(n int) *query.Query {
		q := joinQuery()
		j := q.Joins[0]
		q.Joins = nil
		for i := 0; i < n; i++ {
			q.Joins = append(q.Joins, j)
		}
		return q
	}
	probe := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}})
	cfgs := []*catalog.Configuration{nil, probe}

	o := New(s, ds)
	q64 := withJoins(64)
	for _, cfg := range cfgs {
		want, err := refOptimize(New(s, ds), q64, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Optimize(q64, cfg)
		if err != nil {
			t.Fatalf("64 joins %q: %v", fpOf(cfg), err)
		}
		comparePlans(t, fmt.Sprintf("64 joins %q", fpOf(cfg)), got, want)
	}

	q65 := withJoins(65)
	w := NewWhatIf(o)
	for _, cfg := range cfgs {
		if p, err := o.Optimize(q65, cfg); err == nil || !strings.Contains(err.Error(), "65 join predicates") {
			t.Fatalf("Optimize, 65 joins %q: got plan %v, error %v", fpOf(cfg), p, err)
		}
		if p, err := w.Plan(q65, cfg); err == nil || !strings.Contains(err.Error(), "65 join predicates") {
			t.Fatalf("WhatIf.Plan, 65 joins %q: got plan %v, error %v", fpOf(cfg), p, err)
		}
		if n := cacheEntries(w); n != 0 {
			t.Fatalf("65 joins %q: the what-if cache kept %d entries", fpOf(cfg), n)
		}
	}
}

// chainConfig builds a random index configuration over the chain tables,
// drawn from a deterministic stream.
func chainConfig(rng *util.RNG, n int) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for i := 0; i < n; i++ {
		table := fmt.Sprintf("t%d", i)
		switch rng.Intn(4) {
		case 0: // no index
		case 1:
			cfg.Add(&catalog.Index{Table: table, KeyColumns: []string{"id"}, IncludedColumns: []string{"fk", "v"}})
		case 2:
			cfg.Add(&catalog.Index{Table: table, KeyColumns: []string{"fk"}})
		case 3:
			cfg.Add(&catalog.Index{Table: table, Kind: catalog.Columnstore})
		}
	}
	return cfg
}

// TestDPAndGreedyAgreeOnChains: randomized property over chain queries,
// random index configurations, and random predicate ranges. For two- and
// three-table joins the greedy order must reach exactly the DP cost
// (bit-equal; there is only one non-trivial ordering decision and greedy's
// cheapest-pair criterion is exact there). Beyond that, greedy's
// cumulative-cost heuristic can legitimately diverge, so the property
// weakens to DP optimality: the DP cost is never worse than greedy's.
func TestDPAndGreedyAgreeOnChains(t *testing.T) {
	rng := util.NewRNG(99)
	for _, n := range []int{2, 3, 4, 5} {
		s, ds, base := buildChainEnv(t, n)
		for trial := 0; trial < 8; trial++ {
			trng := rng.SplitInt(n*100 + trial)
			cfg := chainConfig(trng, n)
			q := &query.Query{} // fresh identity: queryInfo caches by pointer
			*q = *base
			lo := trng.Int64Range(0, 50)
			q.Preds = []query.Pred{{Table: "t0", Column: "v", Lo: lo, Hi: lo + trng.Int64Range(0, 49)}}
			dpOpt := New(s, ds)
			dpOpt.DPTableLimit = n // exact DP
			grOpt := New(s, ds)
			grOpt.DPTableLimit = 1 // force greedy for every multi-table query
			dpPlan, err := dpOpt.Optimize(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			grPlan, err := grOpt.Optimize(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dc, gc := dpPlan.EstTotalCost, grPlan.EstTotalCost
			if n <= 3 && math.Float64bits(dc) != math.Float64bits(gc) {
				t.Fatalf("n=%d trial=%d: dp cost %v != greedy cost %v\ndp:\n%s\ngreedy:\n%s",
					n, trial, dc, gc, dpPlan, grPlan)
			}
			if dc > gc {
				t.Fatalf("n=%d trial=%d: DP must be optimal: dp cost %v > greedy cost %v\ndp:\n%s\ngreedy:\n%s",
					n, trial, dc, gc, dpPlan, grPlan)
			}
		}
	}
}

// planSnapshot captures everything observable about a plan so later planner
// activity can be checked for aliasing damage.
type planSnapshot struct {
	str  string
	fp   uint64
	cost uint64
	ptrs map[*plan.Node]bool
	anns map[*plan.Annotations]bool
}

func snapshotPlan(p *plan.Plan) planSnapshot {
	s := planSnapshot{str: p.String(), fp: p.Fingerprint(), cost: math.Float64bits(p.EstTotalCost),
		ptrs: map[*plan.Node]bool{}, anns: map[*plan.Annotations]bool{}}
	p.Root.Walk(func(n *plan.Node) {
		s.ptrs[n] = true
		if n.Ann != nil {
			s.anns[n.Ann] = true
		}
	})
	return s
}

// shares reports whether p holds a node or an annotation block of s.
func (s planSnapshot) shares(p *plan.Plan) bool {
	found := false
	p.Root.Walk(func(n *plan.Node) {
		if s.ptrs[n] || (n.Ann != nil && s.anns[n.Ann]) {
			found = true
		}
	})
	return found
}

// inArena reports whether x is a slot of a.
func inArena[T any](a *arena[T], x *T) bool {
	for _, c := range a.chunks {
		for i := range c {
			if &c[i] == x {
				return true
			}
		}
	}
	return false
}

// optimizeOutsideArenas is o.Optimize(q, cfg), and fails t when the
// returned plan keeps a node or an annotation block in the arenas of the
// planner that made it.
func optimizeOutsideArenas(t *testing.T, o *Optimizer, q *query.Query, cfg *catalog.Configuration) (*plan.Plan, error) {
	t.Helper()
	return o.optimizeWith(q, cfg, func(p *planner) (*plan.Plan, error) {
		pl, err := p.optimize()
		if err != nil {
			return nil, err
		}
		pl.Root.Walk(func(n *plan.Node) {
			if inArena(&p.nodes, n) || (n.Ann != nil && inArena(&p.anns, n.Ann)) {
				t.Fatalf("%s: returned plan keeps a %s node or its annotation block in the planner's arenas", q.Name, n.KeyName())
			}
		})
		return pl, nil
	})
}

// TestPlansNeverAliasPlannerMemory: returned plans must not share nodes or
// annotation blocks with pooled planner arenas or with each other.
// Re-planning the whole suite many times (which recycles every arena) must
// leave earlier plans untouched.
func TestPlansNeverAliasPlannerMemory(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	qs, cfgs := refSuite()

	q0 := joinQuery()
	cfg0 := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}})
	first, err := optimizeOutsideArenas(t, o, q0, cfg0)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotPlan(first)
	if len(snap.anns) == 0 {
		t.Fatalf("the first plan carries no annotation block to check:\n%s", first)
	}

	// Churn the planner pool and the arenas.
	var later []*plan.Plan
	for round := 0; round < 10; round++ {
		for _, q := range qs {
			for _, cfg := range cfgs {
				p, err := optimizeOutsideArenas(t, o, q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				later = append(later, p)
			}
		}
	}

	if got := snapshotPlan(first); got.str != snap.str || got.fp != snap.fp || got.cost != snap.cost {
		t.Fatalf("earlier plan was mutated by later planning:\n%s\nwas:\n%s", got.str, snap.str)
	}
	// A replan of the same (query, config) must be a fresh tree.
	second, err := o.Optimize(q0, cfg0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.shares(second) {
		t.Fatal("replanned plan aliases a node or annotation block of an earlier plan")
	}
	for _, p := range later {
		if snap.shares(p) {
			t.Fatal("later plan aliases a node or annotation block of an earlier plan")
		}
	}
}

// arity is the number of inputs a plan operator takes.
func arity(op plan.Op) int {
	switch op {
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin:
		return 2
	case plan.TableScan, plan.IndexSeek, plan.IndexScan, plan.ColumnstoreScan:
		return 0
	}
	return 1
}

// TestPlanNodesHaveOperatorArity checks the premise of plan.Node's two
// inline child slots on the corpus of TestPlannerMatchesReferenceOnTPC
// (each query under no index and under each of its candidates alone):
// every node the planner returns fills as many slots as its operator takes
// inputs, and slot 1 is never filled while slot 0 is empty.
func TestPlanNodesHaveOperatorArity(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.TPCH("ref-tpch", 4000, 9),
		workload.TPCDS("ref-tpcds", 3000, 9),
		workload.Customer("ref-cust9", 20190701+109, 3, 0.3),
	} {
		o := New(w.Schema, stats.BuildDatabaseStats(w.DB, util.NewRNG(4), 512, 32))
		var plans, nodes int
		for _, q := range w.Queries {
			cfgs := []*catalog.Configuration{nil}
			for _, ix := range candidates.Generate(q, w.Schema, candidates.Limits{}) {
				cfgs = append(cfgs, catalog.NewConfiguration(ix))
			}
			for _, cfg := range cfgs {
				p, err := o.Optimize(q, cfg)
				if err != nil {
					continue
				}
				plans++
				p.Root.Walk(func(n *plan.Node) {
					nodes++
					filled := 0
					for _, k := range n.Kids {
						if k != nil {
							filled++
						}
					}
					if filled != arity(n.Op) || (n.Kids[0] == nil && n.Kids[1] != nil) || len(n.Children()) != filled {
						t.Fatalf("%s %s/%q: a %s node fills slots %v, want its first %d:\n%s",
							w.Name, q.Name, fpOf(cfg), n.KeyName(), [2]bool{n.Kids[0] != nil, n.Kids[1] != nil}, arity(n.Op), p)
					}
				})
			}
		}
		if plans == 0 {
			t.Fatalf("%s: no plan to check", w.Name)
		}
		t.Logf("%s: %d nodes in %d plans", w.Name, nodes, plans)
	}
}

// TestCloneOutAllocs pins what cloneOut allocates: one slab for the nodes,
// plus one for annotation blocks only when some node carries a block. The
// children live in the copies' own slots, so they take no slab.
func TestCloneOutAllocs(t *testing.T) {
	join := &plan.Node{Op: plan.HashJoin, Kids: [2]*plan.Node{
		{Op: plan.TableScan, Table: "fact"}, {Op: plan.TableScan, Table: "dim"}}}
	sortCols := []query.ColRef{{Table: "fact", Column: "f_dim"}}
	for _, c := range []struct {
		root *plan.Node
		want float64
	}{
		{&plan.Node{Op: plan.Exchange, Kids: [2]*plan.Node{join}}, 1},
		{&plan.Node{Op: plan.Sort, Ann: &plan.Annotations{SortCols: sortCols}, Kids: [2]*plan.Node{join}}, 2},
	} {
		var out *plan.Node
		allocs := testing.AllocsPerRun(100, func() { out = cloneOut(c.root) })
		if allocs != c.want {
			t.Fatalf("cloneOut of a %s tree allocated %.1f times per run, want %.0f", c.root.KeyName(), allocs, c.want)
		}
		var in, got []*plan.Node
		c.root.Walk(func(n *plan.Node) { in = append(in, n) })
		out.Walk(func(n *plan.Node) { got = append(got, n) })
		if len(got) != len(in) {
			t.Fatalf("clone has %d nodes, want %d", len(got), len(in))
		}
		for i, n := range got {
			if n == in[i] || n.Op != in[i].Op || n.Table != in[i].Table || (n.Ann != nil) != (in[i].Ann != nil) || (n.Ann != nil && n.Ann == in[i].Ann) {
				t.Fatalf("clone node %d: %s table %q, source %s table %q; a clone must copy, not share", i, n.KeyName(), n.Table, in[i].KeyName(), in[i].Table)
			}
		}
	}
}

// TestOptimizeWarmAllocBudget pins the warm planning path itself (distinct
// from the what-if cache hit): with query info and the planner pool warm, a
// full Optimize call (join DP included) must stay within a small allocation
// budget, and the budget must not grow with the number of DP splits: the
// same budget covers chains of 4, 6 and 8 tables.
func TestOptimizeWarmAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are not stable under -race (sync.Pool drops Puts)")
	}
	type warmCase struct {
		name string
		o    *Optimizer
		q    *query.Query
		cfg  *catalog.Configuration
	}
	s, _, ds := buildEnv(t)
	cases := []warmCase{{"star", New(s, ds), joinQuery(),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}})}}
	for _, n := range []int{4, 6, 8} {
		cs, cds, cq := buildChainEnv(t, n)
		cases = append(cases, warmCase{fmt.Sprintf("chain%d", n), New(cs, cds), cq, nil})
	}
	for _, c := range cases {
		if c.o.DPTableLimit < len(c.q.Tables) {
			t.Fatalf("%s: %d tables exceed the DP limit %d", c.name, len(c.q.Tables), c.o.DPTableLimit)
		}
		if _, err := c.o.Optimize(c.q, c.cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.o.Optimize(c.q, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		// Warm planning clones the result tree out of the arenas (1 slab,
		// a second when a node carries annotations, and the Plan struct).
		// Merge-join sort keys are built once per query and shared by plan
		// nodes; join selectivities and per-table values are read once per
		// call into reused planner scratch. What remains are small slices
		// the plan's nodes keep (residual splits, extra join predicates),
		// none of them per DP split on these queries.
		const budget = 12
		if allocs > budget {
			t.Fatalf("%s: warm Optimize allocated %.1f times per run, budget %d", c.name, allocs, budget)
		}
	}

	// indexPath asks seekablePrefix about every B+ tree of a table; one
	// whose leading key column no predicate constrains seeks nothing, and
	// the answer allocates nothing.
	ix := &catalog.Index{Table: "dim", KeyColumns: []string{"d_id"}}
	preds := joinQuery().Preds // on d_cat only
	allocs := testing.AllocsPerRun(100, func() {
		if seek, rest := seekablePrefix(ix, preds); len(seek) != 0 || len(rest) != len(preds) {
			t.Fatalf("nothing should be seekable: seek=%v rest=%v", seek, rest)
		}
	})
	if allocs != 0 {
		t.Fatalf("seekablePrefix with nothing seekable allocated %.1f times per run, want 0", allocs)
	}
}
