package opt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/util"
	"repro/internal/workload"
)

// This file freezes a reference implementation of the planning algorithm —
// the same discipline as ref_exec_test.go for the executor. refOptimize is
// the planner with none of the performance machinery: no arenas, no pooled
// planners, no dense DP table, no cached per-query analysis. Every node is
// heap-allocated, cost args live in a map keyed by node pointer, and the
// join DP enumerates subsets in the classic by-size order over a map table.
// The live planner must match it bit for bit (fingerprints, rendered plans,
// and float estimates), cold and warm, across every suite below: any
// divergence introduced by the reuse layers is a bug.

type refPlanner struct {
	o        *Optimizer
	q        *query.Query
	cfg      *catalog.Configuration
	tableIdx map[string]int
	args     map[*plan.Node]cost.Args
}

type refSubPlan struct {
	node   *plan.Node
	tables uint64
	rows   float64
	width  float64
	cost   float64
	hasCS  bool
}

func refOptimize(o *Optimizer, q *query.Query, cfg *catalog.Configuration) (*plan.Plan, error) {
	if err := q.Validate(o.Schema); err != nil {
		return nil, err
	}
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	p := &refPlanner{
		o: o, q: q, cfg: cfg,
		tableIdx: make(map[string]int, len(q.Tables)),
		args:     make(map[*plan.Node]cost.Args),
	}
	for i, t := range q.Tables {
		p.tableIdx[t] = i
	}

	base := make([]*refSubPlan, 0, len(q.Tables))
	for _, t := range q.Tables {
		base = append(base, p.bestAccessPath(t))
	}

	var joined *refSubPlan
	if len(base) == 1 {
		joined = base[0]
	} else if len(base) <= o.DPTableLimit {
		joined = p.dpJoin(base)
	} else {
		joined = p.greedyJoin(base)
	}
	if joined == nil {
		return nil, fmt.Errorf("opt: no join order found for query %s", q.Name)
	}

	final := p.addAggregation(joined)
	final = p.addOrdering(final)

	serialCost := final.cost
	result := final
	if serialCost > o.ParallelThreshold {
		par := p.parallelize(final)
		if par.cost < serialCost {
			result = par
		}
	}
	return &plan.Plan{
		Root:         result.node,
		Query:        q,
		ConfigFP:     cfg.Fingerprint(),
		EstTotalCost: result.cost,
	}, nil
}

func (p *refPlanner) annotate(n *plan.Node, a cost.Args, width float64) float64 {
	c := p.o.Model.OpCost(n.Op, n.Mode, n.Par, a)
	n.EstRows = a.RowsOut
	n.EstRowWidth = width
	n.EstBytesProcessed = a.Bytes
	n.EstCost = c
	p.args[n] = a
	return c
}

func (p *refPlanner) selOf(pr query.Pred) float64 {
	if pr.IsEquality() {
		return p.o.Stats.SelectivityEq(pr.Table, pr.Column, pr.Lo)
	}
	return p.o.Stats.SelectivityRange(pr.Table, pr.Column, pr.Lo, pr.Hi)
}

func (p *refPlanner) selAll(preds []query.Pred) float64 {
	s := 1.0
	for _, pr := range preds {
		s *= p.selOf(pr)
	}
	return s
}

func (p *refPlanner) colWidth(table, col string) float64 {
	if t := p.o.Schema.Table(table); t != nil {
		if c := t.Column(col); c != nil {
			return float64(c.Type.Width())
		}
	}
	return 8
}

func (p *refPlanner) widthOf(table string, cols []string) float64 {
	var w float64
	for _, c := range cols {
		w += p.colWidth(table, c)
	}
	return w
}

func (p *refPlanner) bestAccessPath(table string) *refSubPlan {
	preds := p.q.PredsOn(table)
	need := p.q.ColumnsUsed(table)
	mask := uint64(1) << uint(p.tableIdx[table])

	meta := p.o.Schema.Table(table)
	rows := float64(p.o.Stats.RowCount(table))
	needW := p.widthOf(table, need)
	outRows := rows * p.selAll(preds)

	var cands []*refSubPlan
	{
		n := &plan.Node{Op: plan.TableScan, Table: table, ResidualPreds: preds}
		c := p.annotate(n, cost.Args{
			RowsIn: rows, RowsOut: outRows, Bytes: rows * float64(meta.RowWidth()),
		}, needW)
		cands = append(cands, &refSubPlan{node: n, tables: mask, rows: outRows, width: needW, cost: c})
	}
	for _, ix := range p.cfg.IndexesOn(table) {
		if ix.Kind == catalog.Columnstore {
			n := &plan.Node{Op: plan.ColumnstoreScan, Mode: plan.Batch, Table: table, IndexDef: ix, ResidualPreds: preds}
			c := p.annotate(n, cost.Args{
				RowsIn: rows, RowsOut: outRows, Bytes: rows * needW / cost.ColumnstoreCompression,
			}, needW)
			cands = append(cands, &refSubPlan{node: n, tables: mask, rows: outRows, width: needW, cost: c, hasCS: true})
			continue
		}
		if sp := p.indexPath(table, meta, ix, rows, preds, outRows, need, needW, mask); sp != nil {
			cands = append(cands, sp)
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	return best
}

func (p *refPlanner) indexPath(table string, meta *catalog.Table, ix *catalog.Index, rows float64, preds []query.Pred, outRows float64, need []string, needW float64, mask uint64) *refSubPlan {
	seekPreds, rest := seekablePrefix(ix, preds)
	covering := ix.CoversAll(need)
	idxW := p.widthOf(table, ix.KeyColumns) + p.widthOf(table, ix.IncludedColumns) + 8

	if len(seekPreds) == 0 {
		if !covering || idxW >= float64(meta.RowWidth()) {
			return nil
		}
		n := &plan.Node{Op: plan.IndexScan, Table: table, IndexDef: ix, ResidualPreds: preds}
		c := p.annotate(n, cost.Args{RowsIn: rows, RowsOut: outRows, Bytes: rows * idxW}, needW)
		return &refSubPlan{node: n, tables: mask, rows: outRows, width: needW, cost: c}
	}

	selSeek := p.selAll(seekPreds)
	fetched := rows * selSeek
	var covRes, uncovRes []query.Pred
	for _, pr := range rest {
		if ix.Covers(pr.Column) {
			covRes = append(covRes, pr)
		} else {
			uncovRes = append(uncovRes, pr)
		}
	}
	seekOut := fetched * p.selAll(covRes)
	seek := &plan.Node{Op: plan.IndexSeek, Table: table, IndexDef: ix, ResidualPreds: covRes, Ann: &plan.Annotations{SeekPreds: seekPreds}}
	seekCost := p.annotate(seek, cost.Args{
		Probes: 1, Height: estHeight(rows), RowsOut: seekOut, Bytes: fetched * idxW,
	}, math.Min(idxW, needW))

	if covering {
		return &refSubPlan{node: seek, tables: mask, rows: seekOut, width: needW, cost: seekCost}
	}

	lookup := &plan.Node{Op: plan.KeyLookup, Table: table, Kids: [2]*plan.Node{seek}}
	lookCost := p.annotate(lookup, cost.Args{
		RowsIn: seekOut, RowsOut: seekOut, Bytes: seekOut * float64(meta.RowWidth()),
	}, needW)
	top := lookup
	total := seekCost + lookCost
	if len(uncovRes) > 0 {
		filter := &plan.Node{Op: plan.Filter, ResidualPreds: uncovRes, Kids: [2]*plan.Node{lookup}}
		fOut := seekOut * p.selAll(uncovRes)
		total += p.annotate(filter, cost.Args{RowsIn: seekOut, RowsOut: fOut}, needW)
		top = filter
	}
	finalRows := outRows
	if len(uncovRes) == 0 {
		finalRows = seekOut
	}
	return &refSubPlan{node: top, tables: mask, rows: finalRows, width: needW, cost: total}
}

func (p *refPlanner) joinsBetween(a, b uint64) []query.Join {
	var out []query.Join
	for _, j := range p.q.Joins {
		lm := uint64(1) << uint(p.tableIdx[j.LeftTable])
		rm := uint64(1) << uint(p.tableIdx[j.RightTable])
		if (lm&a != 0 && rm&b != 0) || (lm&b != 0 && rm&a != 0) {
			out = append(out, j)
		}
	}
	return out
}

func (p *refPlanner) joinSel(joins []query.Join) float64 {
	s := 1.0
	for _, j := range joins {
		s *= p.o.Stats.JoinSelectivity(j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
	}
	return s
}

func (p *refPlanner) bestJoin(a, b *refSubPlan) *refSubPlan {
	joins := p.joinsBetween(a.tables, b.tables)
	if len(joins) == 0 {
		return nil
	}
	outRows := a.rows * b.rows * p.joinSel(joins)
	if outRows < 1 {
		outRows = 1
	}
	width := a.width + b.width
	mask := a.tables | b.tables
	j := joins[0]
	var extras []query.Join
	if len(joins) > 1 {
		extras = append(extras, joins[1:]...)
	}
	hasCS := a.hasCS || b.hasCS
	mode := plan.Row
	if hasCS {
		mode = plan.Batch
	}

	var best *refSubPlan
	consider := func(sp *refSubPlan) {
		if sp != nil && (best == nil || sp.cost < best.cost) {
			best = sp
		}
	}

	{
		probe, build := a, b
		if build.rows > probe.rows {
			probe, build = build, probe
		}
		n := &plan.Node{Op: plan.HashJoin, Mode: mode, Join: &j, Ann: &plan.Annotations{ExtraJoins: extras},
			Kids: [2]*plan.Node{probe.node, build.node}}
		c := p.annotate(n, cost.Args{
			RowsIn: probe.rows, RowsIn2: build.rows, RowsOut: outRows,
			Bytes: probe.rows*probe.width + build.rows*build.width,
		}, width)
		consider(&refSubPlan{node: n, tables: mask, rows: outRows, width: width, cost: a.cost + b.cost + c, hasCS: hasCS})
	}

	{
		colA := query.ColRef{Table: j.LeftTable, Column: j.LeftColumn}
		colB := query.ColRef{Table: j.RightTable, Column: j.RightColumn}
		if a.tables&(uint64(1)<<uint(p.tableIdx[j.LeftTable])) == 0 {
			colA, colB = colB, colA
		}
		sortA := p.sortNode(a, []query.ColRef{colA})
		sortB := p.sortNode(b, []query.ColRef{colB})
		n := &plan.Node{Op: plan.MergeJoin, Mode: mode, Join: &j, Ann: &plan.Annotations{ExtraJoins: extras},
			Kids: [2]*plan.Node{sortA.node, sortB.node}}
		c := p.annotate(n, cost.Args{
			RowsIn: a.rows, RowsIn2: b.rows, RowsOut: outRows,
			Bytes: a.rows*a.width + b.rows*b.width,
		}, width)
		consider(&refSubPlan{node: n, tables: mask, rows: outRows, width: width, cost: sortA.cost + sortB.cost + c, hasCS: hasCS})
	}

	consider(p.indexNLJ(a, b, joins, outRows, width))
	consider(p.indexNLJ(b, a, joins, outRows, width))

	if b.rows <= 1000 || a.rows <= 1000 {
		outer, inner := a, b
		if inner.rows > outer.rows {
			outer, inner = inner, outer
		}
		if inner.rows <= 1000 {
			n := &plan.Node{Op: plan.NestedLoopJoin, Join: &j, Ann: &plan.Annotations{ExtraJoins: extras},
				Kids: [2]*plan.Node{outer.node, inner.node}}
			c := p.annotate(n, cost.Args{
				RowsIn: outer.rows, RowsIn2: inner.rows, RowsOut: outRows,
				Bytes: inner.rows * inner.width,
			}, width)
			consider(&refSubPlan{node: n, tables: mask, rows: outRows, width: width, cost: a.cost + b.cost + c, hasCS: hasCS})
		}
	}
	return best
}

func (p *refPlanner) sortNode(in *refSubPlan, cols []query.ColRef) *refSubPlan {
	mode := plan.Row
	if in.hasCS {
		mode = plan.Batch
	}
	n := &plan.Node{Op: plan.Sort, Mode: mode, Ann: &plan.Annotations{SortCols: cols}, Kids: [2]*plan.Node{in.node}}
	c := p.annotate(n, cost.Args{RowsIn: in.rows, RowsOut: in.rows, Bytes: in.rows * in.width}, in.width)
	return &refSubPlan{node: n, tables: in.tables, rows: in.rows, width: in.width, cost: in.cost + c, hasCS: in.hasCS}
}

func (p *refPlanner) indexNLJ(outer, inner *refSubPlan, joins []query.Join, outRows, width float64) *refSubPlan {
	if inner.tables&(inner.tables-1) != 0 {
		return nil
	}
	ti := 0
	for inner.tables>>uint(ti)&1 == 0 {
		ti++
	}
	table := p.q.Tables[ti]
	meta := p.o.Schema.Table(table)
	rows := float64(p.o.Stats.RowCount(table))
	need := p.q.ColumnsUsed(table)
	needW := p.widthOf(table, need)

	var joinCol string
	var jp query.Join
	ji := -1
	for i, j := range joins {
		if c := j.ColumnFor(table); c != "" {
			joinCol, jp, ji = c, j, i
			break
		}
	}
	if joinCol == "" {
		return nil
	}
	var extras []query.Join
	if len(joins) > 1 {
		for i, j := range joins {
			if i != ji {
				extras = append(extras, j)
			}
		}
	}
	mode := plan.Row
	if outer.hasCS {
		mode = plan.Batch
	}
	var best *refSubPlan
	for _, ix := range p.cfg.IndexesOn(table) {
		if ix.Kind != catalog.BTree || len(ix.KeyColumns) == 0 || ix.KeyColumns[0] != joinCol {
			continue
		}
		preds := p.q.PredsOn(table)
		perProbeSel := p.o.Stats.JoinSelectivity(jp.LeftTable, jp.LeftColumn, jp.RightTable, jp.RightColumn)
		fetched := outer.rows * rows * perProbeSel
		var covRes, uncovRes []query.Pred
		for _, pr := range preds {
			if ix.Covers(pr.Column) {
				covRes = append(covRes, pr)
			} else {
				uncovRes = append(uncovRes, pr)
			}
		}
		covering := ix.CoversAll(need)
		idxW := p.widthOf(table, ix.KeyColumns) + p.widthOf(table, ix.IncludedColumns) + 8
		seekOut := fetched * p.selAll(covRes)

		seek := &plan.Node{Op: plan.IndexSeek, Table: table, IndexDef: ix, ResidualPreds: covRes}
		innerCost := p.annotate(seek, cost.Args{
			Probes: outer.rows, Height: estHeight(rows), RowsOut: seekOut, Bytes: fetched * idxW,
		}, math.Min(idxW, needW))
		innerTop := seek
		if !covering {
			lookup := &plan.Node{Op: plan.KeyLookup, Table: table, Kids: [2]*plan.Node{seek}}
			innerCost += p.annotate(lookup, cost.Args{
				RowsIn: seekOut, RowsOut: seekOut, Bytes: seekOut * float64(meta.RowWidth()),
			}, needW)
			innerTop = lookup
			if len(uncovRes) > 0 {
				filter := &plan.Node{Op: plan.Filter, ResidualPreds: uncovRes, Kids: [2]*plan.Node{lookup}}
				innerCost += p.annotate(filter, cost.Args{RowsIn: seekOut, RowsOut: seekOut * p.selAll(uncovRes)}, needW)
				innerTop = filter
			}
		}
		jc := jp
		n := &plan.Node{Op: plan.NestedLoopJoin, Mode: mode, Join: &jc, Ann: &plan.Annotations{ExtraJoins: extras},
			Kids: [2]*plan.Node{outer.node, innerTop}}
		c := p.annotate(n, cost.Args{
			RowsIn: outer.rows, RowsIn2: inner.rows, RowsOut: outRows,
			Probes: outer.rows, Height: 1,
		}, width)
		sp := &refSubPlan{
			node: n, tables: outer.tables | inner.tables, rows: outRows, width: width,
			cost: outer.cost + innerCost + c, hasCS: outer.hasCS,
		}
		if best == nil || sp.cost < best.cost {
			best = sp
		}
	}
	return best
}

// dpJoin uses the classic by-size subset enumeration over a map table — the
// shape the live planner's ascending dense-array loop must be equivalent to.
func (p *refPlanner) dpJoin(base []*refSubPlan) *refSubPlan {
	n := len(base)
	full := uint64(1)<<uint(n) - 1
	dp := make(map[uint64]*refSubPlan, 1<<uint(n))
	for _, b := range base {
		dp[b.tables] = b
	}
	for size := 2; size <= n; size++ {
		for set := uint64(1); set <= full; set++ {
			if popcount(set) != size {
				continue
			}
			for sub := (set - 1) & set; sub > 0; sub = (sub - 1) & set {
				other := set ^ sub
				if sub > other {
					continue
				}
				a, ok1 := dp[sub]
				b, ok2 := dp[other]
				if !ok1 || !ok2 {
					continue
				}
				if j := p.bestJoin(a, b); j != nil {
					if cur, ok := dp[set]; !ok || j.cost < cur.cost {
						dp[set] = j
					}
				}
			}
		}
	}
	return dp[full]
}

func (p *refPlanner) greedyJoin(base []*refSubPlan) *refSubPlan {
	pool := append([]*refSubPlan(nil), base...)
	for len(pool) > 1 {
		var bi, bj int
		var bestSP *refSubPlan
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				if sp := p.bestJoin(pool[i], pool[j]); sp != nil {
					if bestSP == nil || sp.cost < bestSP.cost {
						bestSP, bi, bj = sp, i, j
					}
				}
			}
		}
		if bestSP == nil {
			return nil
		}
		var next []*refSubPlan
		for k, sp := range pool {
			if k != bi && k != bj {
				next = append(next, sp)
			}
		}
		pool = append(next, bestSP)
	}
	return pool[0]
}

func (p *refPlanner) addAggregation(in *refSubPlan) *refSubPlan {
	if len(p.q.GroupBy) == 0 && len(p.q.Aggs) == 0 {
		return in
	}
	groups := p.estGroups(in.rows)
	outW := in.width
	mode := plan.Row
	if in.hasCS {
		mode = plan.Batch
	}

	hash := &plan.Node{Op: plan.HashAggregate, Mode: mode, Ann: &plan.Annotations{GroupCols: p.q.GroupBy}, Kids: [2]*plan.Node{in.node}}
	hc := p.annotate(hash, cost.Args{RowsIn: in.rows, RowsOut: groups, Bytes: in.rows * in.width}, outW)
	hashSP := &refSubPlan{node: hash, tables: in.tables, rows: groups, width: outW, cost: in.cost + hc, hasCS: in.hasCS}

	if len(p.q.GroupBy) == 0 {
		return hashSP
	}
	sorted := p.sortNode(in, p.q.GroupBy)
	stream := &plan.Node{Op: plan.StreamAggregate, Ann: &plan.Annotations{GroupCols: p.q.GroupBy}, Kids: [2]*plan.Node{sorted.node}}
	sc := p.annotate(stream, cost.Args{RowsIn: in.rows, RowsOut: groups, Bytes: in.rows * in.width}, outW)
	streamSP := &refSubPlan{node: stream, tables: in.tables, rows: groups, width: outW, cost: sorted.cost + sc, hasCS: in.hasCS}
	if sameCols(p.q.GroupBy, p.q.OrderBy) {
		hashTotal := hashSP.cost + p.o.Model.OpCost(plan.Sort, hash.Mode, plan.Serial, cost.Args{RowsIn: groups, RowsOut: groups})
		if streamSP.cost <= hashTotal {
			return streamSP
		}
		return hashSP
	}
	if streamSP.cost < hashSP.cost {
		return streamSP
	}
	return hashSP
}

func (p *refPlanner) estGroups(rowsIn float64) float64 {
	if len(p.q.GroupBy) == 0 {
		return 1
	}
	g := 1.0
	for _, c := range p.q.GroupBy {
		if cs := p.o.Stats.Column(c.Table, c.Column); cs != nil {
			g *= math.Max(1, cs.Distinct)
		} else {
			g *= 100
		}
	}
	return math.Max(1, math.Min(g, rowsIn))
}

func (p *refPlanner) addOrdering(in *refSubPlan) *refSubPlan {
	out := in
	if len(p.q.OrderBy) > 0 {
		if !(out.node.Op == plan.StreamAggregate && sameCols(p.q.GroupBy, p.q.OrderBy)) {
			out = p.sortNode(out, p.q.OrderBy)
		}
	}
	if p.q.Limit > 0 {
		outRows := math.Min(float64(p.q.Limit), out.rows)
		n := &plan.Node{Op: plan.Top, Ann: &plan.Annotations{TopN: p.q.Limit}, Kids: [2]*plan.Node{out.node}}
		c := p.annotate(n, cost.Args{RowsIn: out.rows, RowsOut: outRows}, out.width)
		out = &refSubPlan{node: n, tables: out.tables, rows: outRows, width: out.width, cost: out.cost + c, hasCS: out.hasCS}
	}
	return out
}

func (p *refPlanner) parallelize(in *refSubPlan) *refSubPlan {
	cloned, totalCost := p.cloneRecost(in.node, plan.Parallel)
	ex := &plan.Node{Op: plan.Exchange, Par: plan.Parallel, Kids: [2]*plan.Node{cloned}}
	if cloned.Mode == plan.Batch {
		ex.Mode = plan.Batch
	}
	exCost := p.annotate(ex, cost.Args{RowsIn: cloned.EstRows, RowsOut: cloned.EstRows, Bytes: cloned.EstRows * in.width}, in.width)
	return &refSubPlan{
		node: ex, tables: in.tables, rows: in.rows, width: in.width,
		cost: totalCost + exCost, hasCS: in.hasCS,
	}
}

func (p *refPlanner) cloneRecost(n *plan.Node, par plan.Parallelism) (*plan.Node, float64) {
	a := p.args[n]
	c := *n
	c.Par = par
	var total float64
	if len(n.Children()) > 0 {
		for i, ch := range n.Children() {
			cc, sub := p.cloneRecost(ch, par)
			c.Kids[i] = cc
			total += sub
		}
	}
	c.EstCost = p.o.Model.OpCost(c.Op, c.Mode, c.Par, a)
	p.args[&c] = a
	return &c, total + c.EstCost
}

// multiJoinQuery joins fact and dim on two predicates, exercising the
// extra-join carrying path.
func multiJoinQuery() *query.Query {
	return &query.Query{
		Name:   "mj",
		Tables: []string{"fact", "dim"},
		Preds:  []query.Pred{{Table: "dim", Column: "d_cat", Lo: 3, Hi: 3}},
		Joins: []query.Join{
			{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"},
			{LeftTable: "fact", LeftColumn: "f_val", RightTable: "dim", RightColumn: "d_cat"},
		},
		Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
	}
}

// inljQuery has a very selective outer and a fact-side join index, so the
// index nested-loop path wins under inljConfig.
func inljQuery() *query.Query {
	return &query.Query{
		Name:   "inlj",
		Tables: []string{"dim", "fact"},
		Preds:  []query.Pred{{Table: "dim", Column: "d_id", Lo: 5, Hi: 5}},
		Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "f_dim", RightTable: "dim", RightColumn: "d_id"}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}},
	}
}

// refSuite is the (query, configuration) matrix the reference comparison
// covers: every access-path shape, joins, multi-predicate joins, index
// NLJ, columnstores, and parallel plans.
//
// Two configurations pin properties the reference does not reach by
// construction:
//
//   - {fact/bt(f_dim)+(f_val), fact/cs}: jq probes fact's B+ tree through
//     an index NLJ while fact's own best access path is the columnstore
//     scan, so the join's batch eligibility must come from its outer
//     alone (HashAggregate_Row above it, not _Batch);
//   - fact/bt(f_pad): no query filters, joins or covers on f_pad, so the
//     live planner drops the index by its relevance rule while the
//     reference still considers it; equal plans show the drop is sound.
func refSuite() ([]*query.Query, []*catalog.Configuration) {
	qs, cfgs := pathSuite()
	qs = append(qs, multiJoinQuery(), inljQuery())
	cfgs = append(cfgs,
		catalog.NewConfiguration(
			&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}},
			&catalog.Index{Table: "dim", Kind: catalog.Columnstore}),
		catalog.NewConfiguration(
			&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}},
			&catalog.Index{Table: "fact", Kind: catalog.Columnstore}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_pad"}}),
	)
	return qs, cfgs
}

// comparePlans asserts two plans are bit-identical: same fingerprint, same
// rendering, and float-bit-equal estimates on every node. It also checks
// got's layout: a node points at an annotation block exactly when it
// carries an annotation, and no two nodes share a block.
func comparePlans(t *testing.T, label string, got, want *plan.Plan) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint mismatch:\n%s\nvs reference:\n%s", label, got, want)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: rendering mismatch:\n%s\nvs reference:\n%s", label, got, want)
	}
	if math.Float64bits(got.EstTotalCost) != math.Float64bits(want.EstTotalCost) {
		t.Fatalf("%s: EstTotalCost %x vs %x", label, got.EstTotalCost, want.EstTotalCost)
	}
	var gn, wn []*plan.Node
	got.Root.Walk(func(n *plan.Node) { gn = append(gn, n) })
	want.Root.Walk(func(n *plan.Node) { wn = append(wn, n) })
	if len(gn) != len(wn) {
		t.Fatalf("%s: node count %d vs %d", label, len(gn), len(wn))
	}
	blocks := map[*plan.Annotations]bool{}
	for i := range gn {
		g, w := gn[i], wn[i]
		if (g.Ann != nil) != carriesAnnotation(g) {
			t.Fatalf("%s: node %d (%s) has annotation block %v but carries an annotation: %v", label, i, g.KeyName(), g.Ann != nil, carriesAnnotation(g))
		}
		if g.Ann != nil {
			if blocks[g.Ann] {
				t.Fatalf("%s: node %d (%s) shares its annotation block with another node", label, i, g.KeyName())
			}
			blocks[g.Ann] = true
		}
		if math.Float64bits(g.EstRows) != math.Float64bits(w.EstRows) ||
			math.Float64bits(g.EstRowWidth) != math.Float64bits(w.EstRowWidth) ||
			math.Float64bits(g.EstBytesProcessed) != math.Float64bits(w.EstBytesProcessed) ||
			math.Float64bits(g.EstCost) != math.Float64bits(w.EstCost) {
			t.Fatalf("%s: node %d (%s) estimates differ: rows %v/%v width %v/%v bytes %v/%v cost %v/%v",
				label, i, g.KeyName(), g.EstRows, w.EstRows, g.EstRowWidth, w.EstRowWidth,
				g.EstBytesProcessed, w.EstBytesProcessed, g.EstCost, w.EstCost)
		}
		if g.Scratch != 0 {
			t.Fatalf("%s: node %d (%s) leaked non-zero Scratch %d", label, i, g.KeyName(), g.Scratch)
		}
	}
}

// TestPlannerMatchesReference pins the live planner — arenas, pooled
// planners, dense DP, per-query analysis — bit-for-bit to the frozen
// reference implementation, on a cold pass and a warm one.
func TestPlannerMatchesReference(t *testing.T) {
	s, _, ds := buildEnv(t)
	qs, cfgs := refSuite()
	live := New(s, ds)
	for pass := 0; pass < 2; pass++ { // pass 1 reuses pooled planners and query analysis
		for _, q := range qs {
			for _, cfg := range cfgs {
				ref := New(s, ds) // fresh model/stats pointers not needed; refOptimize keeps no state
				want, errW := refOptimize(ref, q, cfg)
				got, errG := live.Optimize(q, cfg)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("pass %d %s/%q: error mismatch: live=%v ref=%v", pass, q.Name, fpOf(cfg), errG, errW)
				}
				if errW != nil {
					continue
				}
				comparePlans(t, fmt.Sprintf("pass %d %s/%q", pass, q.Name, fpOf(cfg)), got, want)
			}
		}
	}
}

// TestPlannerMatchesReferenceOnChain extends the comparison to a 12-table
// chain, covering greedy ordering (beyond the DP limit) and deep DP (at the
// limit) against the reference. It also plans the chain with two more
// joins, t3.v = t0.v and t5.fk = t2.id, each closing a cycle, under no
// index and under a B+ tree on every fk column. The cycles give splits that
// carry two joins between multi-table halves, and sets with as many joins
// inside as a connected set needs that are still not connected. No
// workload query has a cycle.
func TestPlannerMatchesReferenceOnChain(t *testing.T) {
	s, ds, chain := buildChainEnv(t, 12)
	cyclic := &query.Query{}
	*cyclic = *chain
	cyclic.Joins = append(append([]query.Join(nil), chain.Joins...),
		query.Join{LeftTable: "t3", LeftColumn: "v", RightTable: "t0", RightColumn: "v"},
		query.Join{LeftTable: "t5", LeftColumn: "fk", RightTable: "t2", RightColumn: "id"},
	)
	fks := catalog.NewConfiguration()
	for _, tb := range chain.Tables {
		fks.Add(&catalog.Index{Table: tb, KeyColumns: []string{"fk"}})
	}
	cases := []struct {
		name string
		q    *query.Query
		cfg  *catalog.Configuration
	}{{"chain", chain, nil}, {"cyclic", cyclic, nil}, {"cyclic fk", cyclic, fks}}
	for _, limit := range []int{10, 12} {
		live := New(s, ds)
		live.DPTableLimit = limit
		ref := New(s, ds)
		ref.DPTableLimit = limit
		for _, c := range cases {
			want, err := refOptimize(ref, c.q, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := live.Optimize(c.q, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s limit=%d pass=%d", c.name, limit, pass)
				comparePlans(t, label, got, want)
				if n := len(planJoins(got)); n != len(c.q.Joins) {
					t.Fatalf("%s: plan carries %d join predicates, query has %d:\n%s", label, n, len(c.q.Joins), got)
				}
			}
		}
	}
}

// TestPlannerMatchesReferenceOnTPC extends the comparison to TPC-H, TPC-DS
// and cust9 under no index and under each of every query's candidates
// alone, and checks that no returned plan keeps a node or an annotation
// block in the arenas of the planner that made it. Unlike refSuite and the chain, these plans pick merge joins over
// multi-table inputs, so the merge join's costing and build, including its
// sort keys when the driving join's left table is on the right input (only
// TPC-DS has those), decide plans the comparison checks; the test asserts
// that each workload has such plans. cust9, built as the evaluation suite
// builds it at a smaller scale, adds 8-table snowflake DPs whose
// foreign-key candidates are probed by index nested-loop joins; the test
// asserts that some 8-table plans take one.
func TestPlannerMatchesReferenceOnTPC(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.TPCH("ref-tpch", 4000, 9),
		workload.TPCDS("ref-tpcds", 3000, 9),
		workload.Customer("ref-cust9", 20190701+109, 3, 0.3),
	} {
		ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), 512, 32)
		live := New(w.Schema, ds)
		ref := New(w.Schema, ds)
		var plans, merges, wide, wideINLJ int
		for _, q := range w.Queries {
			cfgs := []*catalog.Configuration{nil}
			for _, ix := range candidates.Generate(q, w.Schema, candidates.Limits{}) {
				cfgs = append(cfgs, catalog.NewConfiguration(ix))
			}
			for _, cfg := range cfgs {
				want, errW := refOptimize(ref, q, cfg)
				got, errG := optimizeOutsideArenas(t, live, q, cfg)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%s %s/%q: error mismatch: live=%v ref=%v", w.Name, q.Name, fpOf(cfg), errG, errW)
				}
				if errW != nil {
					continue
				}
				comparePlans(t, fmt.Sprintf("%s %s/%q", w.Name, q.Name, fpOf(cfg)), got, want)
				plans++
				if hasMultiTableMerge(got.Root) {
					merges++
				}
				if len(q.Tables) == 8 {
					wide++
					if findINLJ(got) != nil {
						wideINLJ++
					}
				}
			}
		}
		t.Logf("%s: %d of %d plans merge-join a multi-table input; %d of %d 8-table plans take an index NLJ", w.Name, merges, plans, wideINLJ, wide)
		if merges == 0 {
			t.Fatalf("%s: no merge join over a multi-table input in %d plans", w.Name, plans)
		}
		if w.Name == "ref-cust9" && wideINLJ == 0 {
			t.Fatalf("%s: no index NLJ in %d 8-table plans", w.Name, wide)
		}
	}
}

// hasMultiTableMerge reports whether some merge join in n's tree has a
// join below one of its inputs.
func hasMultiTableMerge(n *plan.Node) bool {
	found := false
	n.Walk(func(m *plan.Node) {
		if m.Op != plan.MergeJoin {
			return
		}
		for _, c := range m.Children() {
			c.Walk(func(d *plan.Node) {
				if d.Op == plan.HashJoin || d.Op == plan.MergeJoin || d.Op == plan.NestedLoopJoin {
					found = true
				}
			})
		}
	})
	return found
}

// carriesAnnotation reports whether n carries any annotation that lives
// out of line.
func carriesAnnotation(n *plan.Node) bool {
	return len(n.SeekPreds()) > 0 || len(n.ExtraJoins()) > 0 || len(n.SortCols()) > 0 ||
		len(n.GroupCols()) > 0 || n.TopN() != 0
}

func fpOf(cfg *catalog.Configuration) string {
	if cfg == nil {
		return ""
	}
	return cfg.Fingerprint()
}
