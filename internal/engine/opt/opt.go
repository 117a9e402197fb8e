// Package opt implements the cost-based query optimizer. Given a logical
// query, database statistics, and an index configuration — real or
// hypothetical — it produces a physical plan annotated with estimates.
//
// Because planning consumes only statistics (never physical index
// structures), calling Optimize with a hypothetical configuration *is* the
// "what-if" API of Chaudhuri and Narasayya that index tuners rely on.
//
// The optimizer's estimates err in structured ways: cardinalities come from
// histograms with uniformity/independence/containment assumptions
// (internal/engine/stats) and operator costs use the believed calibration
// of cost.OptimizerModel(). The executor disagrees on both, which creates
// the estimate-vs-execution gap the paper's classifier learns to correct.
//
// Planning is the hot path of every what-if probe (DESIGN.md §12). Across
// calls the optimizer keeps only per-query analysis, once per distinct
// query (queryInfo), and nothing derived from Stats or Model, so swapping
// either or changing it in place takes effect on the next call. Access
// paths and the dense join DP are planned afresh on every call. The DP
// costs every join alternative from its cost.Args without building a node,
// keeps the cheapest as a recipe per table set, and builds nodes only for
// the plan it returns (build). Sets of tables and of join predicates are
// uint64 bitmasks, so a query may have at most 64 join predicates. The DP
// reads the joins between a split's halves from a per-set table of join
// masks, skips a table set with too few joins inside to be connected, costs
// each split into a pointer-free candidate, and stops costing an
// alternative once its partial cost reaches the best so far. Values that
// do not depend on the split (join selectivities, per-table row counts and
// widths, per-(table, index) selectivities and widths) come from per-call
// tables filled once. All transient planning state lives in per-planner
// arenas recycled through a sync.Pool; returned plans are cloned out and
// never alias pooled memory.
package opt

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
)

// btreeFanout approximates the effective fanout used to estimate index
// height at planning time.
const btreeFanout = 48.0

// Optimizer plans queries against a schema, statistics, and a cost model.
type Optimizer struct {
	Schema *catalog.Schema
	Stats  *stats.DatabaseStats
	Model  *cost.Model

	// ParallelThreshold is the estimated serial cost above which a
	// parallel alternative is considered.
	ParallelThreshold float64
	// DPTableLimit is the largest table count planned with exact dynamic
	// programming; larger queries use greedy join ordering.
	DPTableLimit int

	// analyses holds the per-query analyses (validation, fingerprint,
	// table ordinals, per-table predicates and columns, join bitmasks and
	// sort keys), at most maxAnalyses of them (queryInfo).
	analyses atomic.Pointer[queryAnalyses]

	// planners recycles planner arenas across Optimize calls.
	planners sync.Pool
}

// maxAnalyses caps the distinct query fingerprints an optimizer keeps an
// analysis for. A daemon plans whatever SQL text its clients send; a
// workload has far fewer queries.
const maxAnalyses = 4096

// queryAnalyses holds one per-query analysis per distinct query
// fingerprint in byFP. qinfo is the pointer fast path to it, kept only for
// the first *query.Query seen per fingerprint, so a client that re-parses
// one SQL text per request adds no entry. Queries are immutable once
// built. n counts the fingerprints stored.
type queryAnalyses struct {
	byFP  sync.Map // fingerprint -> *queryInfo
	qinfo sync.Map // *query.Query -> *queryInfo
	n     atomic.Int32
}

// New returns an optimizer with the default believed cost model.
func New(schema *catalog.Schema, st *stats.DatabaseStats) *Optimizer {
	o := &Optimizer{
		Schema:            schema,
		Stats:             st,
		Model:             cost.OptimizerModel(),
		ParallelThreshold: 20000,
		DPTableLimit:      10,
	}
	o.analyses.Store(new(queryAnalyses))
	return o
}

// emptyConfig backs Optimize(q, nil) and WhatIf.Plan(q, nil) so the
// nil-config path allocates no per-call Configuration. It is never mutated.
var emptyConfig = catalog.NewConfiguration()

// subPlan is a partial plan during enumeration. An access path carries its
// built node. A join is a recipe until build makes its nodes: the
// algorithm, the two inputs, the join predicate that drives it and, for an
// index nested-loop join, the probed index. Only the recipes of the plan
// Optimize returns are ever built.
type subPlan struct {
	node   *plan.Node // nil for a join not yet built
	tables uint64     // bitmask over query table ordinals
	rows   float64    // estimated output rows
	width  float64    // estimated output row width in bytes
	cost   float64    // cumulative estimated cost
	// sortCost caches the cost of a Sort over this subplan for bestJoin's
	// merge alternative; 0 means not yet computed (see planner.sortCost).
	sortCost float64
	hasCS    bool // subtree contains a columnstore scan (batch eligible)

	alg         joinAlg
	left, right *subPlan  // the inputs, in the order joinAlg names them
	join        int       // ordinal into qi.joins of the driving join
	probe       *probeVal // index NLJ: the inner table's probed index
}

// joinAlg is the physical algorithm of a join recipe.
type joinAlg uint8

const (
	hashJoin       joinAlg = iota // left probes, right builds
	mergeJoin                     // left and right each sorted on the join
	indexNLJoin                   // left drives probes into right's index
	nestedLoopJoin                // left is the outer, right a tiny inner
)

// joinArgs returns the cost.Args of the top node of a join with inputs l
// and r producing rows rows. Costing and build both take them from here.
func joinArgs(alg joinAlg, l, r *subPlan, rows float64) cost.Args {
	switch alg {
	case hashJoin, mergeJoin:
		return cost.Args{RowsIn: l.rows, RowsIn2: r.rows, RowsOut: rows, Bytes: l.rows*l.width + r.rows*r.width}
	case indexNLJoin:
		// Costed like the plain NLJ but on the probes branch: one probe per
		// outer row (the seek below charges the tree descent; Height 1
		// here charges only the per-probe join overhead). RowsIn2 carries
		// the inner-side cardinality for symmetry with plain NLJ.
		return cost.Args{RowsIn: l.rows, RowsIn2: r.rows, RowsOut: rows, Probes: l.rows, Height: 1}
	default:
		return cost.Args{RowsIn: l.rows, RowsIn2: r.rows, RowsOut: rows, Bytes: r.rows * r.width}
	}
}

// joinOp returns the operator and execution mode of a join's top node. A
// plain nested-loop join always runs in row mode.
func joinOp(alg joinAlg, hasCS bool) (plan.Op, plan.Mode) {
	switch alg {
	case hashJoin:
		return plan.HashJoin, modeOf(hasCS)
	case mergeJoin:
		return plan.MergeJoin, modeOf(hasCS)
	case indexNLJoin:
		return plan.NestedLoopJoin, modeOf(hasCS)
	default:
		return plan.NestedLoopJoin, plan.Row
	}
}

// modeOf returns the execution mode of an operator over a subtree.
func modeOf(hasCS bool) plan.Mode {
	if hasCS {
		return plan.Batch
	}
	return plan.Row
}

// joinRef is one join predicate of the current query with the table
// bitmasks of its two sides precomputed, a stable pointer into q.Joins for
// attaching to plan nodes without an allocation, and the one-column
// merge-join sort key of each side. Plan nodes share the key slices
// read-only, the way GroupCols shares q.GroupBy.
type joinRef struct {
	j          query.Join
	ptr        *query.Join
	lm, rm     uint64
	lkey, rkey []query.ColRef
}

// queryInfo is the per-query analysis shared by every Optimize call for
// queries with one fingerprint: validation outcome, fingerprint, table
// ordinals, per-table predicate/column slices, and join bitmasks and sort
// keys. Computing it once per query (not per probe) is most of the fixed
// cost a what-if call used to pay.
type queryInfo struct {
	err      error
	fp       string // q.Fingerprint(), the what-if cache's query key
	tableIdx map[string]int
	predsOn  [][]query.Pred // by table ordinal
	colsUsed [][]string     // by table ordinal
	predCols [][]string     // by table ordinal: columns with a predicate
	joinCols [][]string     // by table ordinal: columns in a join
	joinsOn  []uint64       // by table ordinal: mask of the joins touching it
	joins    []joinRef      // parallel to q.Joins
}

// maxJoins is the most join predicates a query may have: the planner keeps
// sets of joins as uint64 bitmasks over join ordinals.
const maxJoins = 64

// indexTable returns the ordinal of ix's table in the query, or false when
// ix cannot change the query's plan. getPlanner, the what-if cache key
// (WhatIf.Plan) and the workload greedy's touched sets (Relevant) all
// apply this one rule:
//
//   - an index on a table the query does not reference is never read;
//   - a columnstore always yields an access path;
//   - the planner reads a B+ tree in two places only. indexPath seeks it
//     on a predicate over its leading key column, or scans it when it
//     covers every column the query uses from the table. indexNLJ probes
//     it on a join column that leads its key.
//
// A planner change that reads a B+ tree anywhere else, such as its order
// in a stream aggregate or a merge join over an index scan, must widen
// this rule in the same change.
func (qi *queryInfo) indexTable(ix *catalog.Index) (int, bool) {
	ti, ok := qi.tableIdx[ix.Table]
	if !ok || ix.Kind == catalog.Columnstore {
		return ti, ok
	}
	if len(ix.KeyColumns) > 0 {
		lead := ix.KeyColumns[0]
		if slices.Contains(qi.predCols[ti], lead) || slices.Contains(qi.joinCols[ti], lead) {
			return ti, true
		}
	}
	return ti, ix.CoversAll(qi.colsUsed[ti])
}

// Relevant reports whether ix can change q's plan, by the rule of
// queryInfo.indexTable: q plans the same under a configuration with or
// without an index that is not relevant to it.
func (o *Optimizer) Relevant(q *query.Query, ix *catalog.Index) bool {
	_, ok := o.queryInfo(q).indexTable(ix)
	return ok
}

// queryInfo returns the analysis for q, computing it the first time q's
// fingerprint is seen. An analysis that would be the (maxAnalyses+1)th
// first replaces both maps with empty ones, by one swap of o.analyses. An
// analysis is a pure function of the query and the schema, so one dropped
// costs only its re-analysis.
func (o *Optimizer) queryInfo(q *query.Query) *queryInfo {
	a := o.analyses.Load()
	if v, ok := a.qinfo.Load(q); ok {
		return v.(*queryInfo)
	}
	fp := q.Fingerprint()
	if v, ok := a.byFP.Load(fp); ok {
		return v.(*queryInfo)
	}
	qi := o.analyze(q, fp)
	if a.n.Add(1) > maxAnalyses {
		o.analyses.CompareAndSwap(a, new(queryAnalyses)) // a racing caller may have swapped first
		a = o.analyses.Load()
		a.n.Add(1)
	}
	v, loaded := a.byFP.LoadOrStore(fp, qi)
	if !loaded {
		a.qinfo.Store(q, v)
	}
	return v.(*queryInfo)
}

// analyze computes the per-query analysis of q.
func (o *Optimizer) analyze(q *query.Query, fp string) *queryInfo {
	qi := &queryInfo{fp: fp}
	if err := q.Validate(o.Schema); err != nil {
		qi.err = err
		return qi
	}
	if len(q.Joins) > maxJoins {
		qi.err = fmt.Errorf("opt: query %s has %d join predicates, more than the %d the planner supports", q.Name, len(q.Joins), maxJoins)
		return qi
	}
	qi.tableIdx = make(map[string]int, len(q.Tables))
	for i, t := range q.Tables {
		qi.tableIdx[t] = i
	}
	nt := len(q.Tables)
	qi.predsOn = make([][]query.Pred, nt)
	qi.colsUsed = make([][]string, nt)
	qi.predCols = make([][]string, nt)
	qi.joinCols = make([][]string, nt)
	qi.joinsOn = make([]uint64, nt)
	for i, t := range q.Tables {
		qi.predsOn[i] = q.PredsOn(t)
		qi.colsUsed[i] = q.ColumnsUsed(t)
		for _, pr := range qi.predsOn[i] {
			qi.predCols[i] = addCol(qi.predCols[i], pr.Column)
		}
	}
	qi.joins = make([]joinRef, len(q.Joins))
	for i := range q.Joins {
		j := &q.Joins[i]
		lt, rt := qi.tableIdx[j.LeftTable], qi.tableIdx[j.RightTable]
		qi.joins[i] = joinRef{
			j:    *j,
			ptr:  j,
			lm:   uint64(1) << uint(lt),
			rm:   uint64(1) << uint(rt),
			lkey: []query.ColRef{{Table: j.LeftTable, Column: j.LeftColumn}},
			rkey: []query.ColRef{{Table: j.RightTable, Column: j.RightColumn}},
		}
		qi.joinCols[lt] = addCol(qi.joinCols[lt], j.LeftColumn)
		qi.joinCols[rt] = addCol(qi.joinCols[rt], j.RightColumn)
		qi.joinsOn[lt] |= 1 << uint(i)
		qi.joinsOn[rt] |= 1 << uint(i)
	}
	return qi
}

// addCol appends col to cols unless cols already holds it.
func addCol(cols []string, col string) []string {
	if slices.Contains(cols, col) {
		return cols
	}
	return append(cols, col)
}

// planner carries per-query planning state. Planners are pooled: all
// transient objects live in arenas reset between calls, and every scratch
// slice is reused at its high-water capacity.
type planner struct {
	o   *Optimizer
	q   *query.Query
	qi  *queryInfo
	cfg *catalog.Configuration

	nodes arena[plan.Node]
	anns  arena[plan.Annotations]
	subs  arena[subPlan]
	// args holds the cost.Args of every arena node, indexed by
	// plan.Node.Scratch; parallelize/cloneRecost recost from it.
	args []cost.Args

	ixsOn [][]*catalog.Index // indexes of cfg per table ordinal
	base  []*subPlan
	dp    []*subPlan // dense DP table indexed by table bitmask
	jin   []uint64   // parallel to dp: mask of the joins inside each set
	cands []*subPlan // bestAccessPath candidate scratch
	gpool []*subPlan // greedyJoin scratch

	// Per-call values the DP would otherwise look up once per split. They
	// are read from o.Stats and o.Schema on every call, never cached
	// across calls, so a swapped Stats is honoured.
	jsel  []float64  // JoinSelectivity by join ordinal
	tabs  []tableVal // by table ordinal
	pvals []probeVal // every table's probeable indexes; see tableVal
}

// tableVal holds the per-call values of one query table.
type tableVal struct {
	meta     *catalog.Table
	rows     float64 // row count
	needW    float64 // width of the columns the query uses
	rowW     float64 // full row width
	height   float64 // estimated B+ tree height
	plo, phi int     // the table's probeable indexes are pvals[plo:phi]
}

// probeVal holds the values of one (table, B+ tree) pair that indexNLJ
// reads on every split: one per B+ tree whose leading key column is a join
// column of its table, in configuration order.
type probeVal struct {
	ix       *catalog.Index
	covSel   float64 // selectivity of the table's predicates ix covers
	uncovSel float64 // and of the ones it does not, each in predicate order
	width    float64 // index entry width
	covers   bool    // ix covers every column the query uses from the table
	uncov    bool    // some predicate on the table is not covered
}

func (o *Optimizer) getPlanner(q *query.Query, qi *queryInfo, cfg *catalog.Configuration) *planner {
	p, _ := o.planners.Get().(*planner)
	if p == nil {
		p = &planner{}
	}
	p.o, p.q, p.qi, p.cfg = o, q, qi, cfg
	nt := len(q.Tables)
	for len(p.ixsOn) < nt {
		p.ixsOn = append(p.ixsOn, nil)
	}
	for i := 0; i < nt; i++ {
		p.ixsOn[i] = p.ixsOn[i][:0]
	}
	for _, ix := range cfg.SortedIndexes() {
		if ti, ok := qi.indexTable(ix); ok {
			p.ixsOn[ti] = append(p.ixsOn[ti], ix)
		}
	}
	p.jsel = p.jsel[:0]
	for i := range qi.joins {
		j := &qi.joins[i].j
		p.jsel = append(p.jsel, o.Stats.JoinSelectivity(j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn))
	}
	p.tabs = p.tabs[:0]
	p.pvals = p.pvals[:0]
	for i, t := range q.Tables {
		meta := o.Schema.Table(t)
		rows := float64(o.Stats.RowCount(t))
		lo := len(p.pvals)
		for _, ix := range p.ixsOn[i] {
			if ix.Kind == catalog.BTree && len(ix.KeyColumns) > 0 && slices.Contains(qi.joinCols[i], ix.KeyColumns[0]) {
				p.pvals = append(p.pvals, p.probeValOf(t, ix, qi.predsOn[i], qi.colsUsed[i]))
			}
		}
		p.tabs = append(p.tabs, tableVal{
			meta:   meta,
			rows:   rows,
			needW:  p.widthOf(t, qi.colsUsed[i]),
			rowW:   float64(meta.RowWidth()),
			height: estHeight(rows),
			plo:    lo,
			phi:    len(p.pvals),
		})
	}
	return p
}

// probeValOf computes the values indexNLJ reads for B+ tree ix on table.
func (p *planner) probeValOf(table string, ix *catalog.Index, preds []query.Pred, need []string) probeVal {
	pv := probeVal{
		ix:       ix,
		covSel:   1,
		uncovSel: 1,
		width:    p.widthOf(table, ix.KeyColumns) + p.widthOf(table, ix.IncludedColumns) + 8,
		covers:   ix.CoversAll(need),
	}
	for _, pr := range preds {
		if ix.Covers(pr.Column) {
			pv.covSel *= p.selOf(pr)
		} else {
			pv.uncovSel *= p.selOf(pr)
			pv.uncov = true
		}
	}
	return pv
}

func (o *Optimizer) putPlanner(p *planner) {
	p.nodes.reset()
	p.anns.reset()
	p.subs.reset()
	p.args = p.args[:0]
	p.base = p.base[:0]
	p.o, p.q, p.qi, p.cfg = nil, nil, nil, nil
	o.planners.Put(p)
}

// node copies n into an arena slot and assigns it a fresh args index.
func (p *planner) node(n plan.Node) *plan.Node {
	nd := p.nodes.alloc(n)
	nd.Scratch = int32(len(p.args))
	p.args = append(p.args, cost.Args{})
	return nd
}

// ann copies a into an arena block for a node to point at, or returns nil
// when a carries nothing: a node holds a block only when it has an
// annotation.
func (p *planner) ann(a plan.Annotations) *plan.Annotations {
	if a.Empty() {
		return nil
	}
	return p.anns.alloc(a)
}

func (p *planner) sub(sp subPlan) *subPlan { return p.subs.alloc(sp) }

// Optimize produces the physical plan for q under configuration cfg. cfg
// may contain hypothetical indexes: only statistics are consulted.
func (o *Optimizer) Optimize(q *query.Query, cfg *catalog.Configuration) (*plan.Plan, error) {
	return o.optimizeWith(q, cfg, (*planner).optimize)
}

// optimizeWith is Optimize with run in place of planner.optimize, so tests
// can inspect the planner's arenas before they are recycled.
func (o *Optimizer) optimizeWith(q *query.Query, cfg *catalog.Configuration, run func(*planner) (*plan.Plan, error)) (*plan.Plan, error) {
	qi := o.queryInfo(q)
	if qi.err != nil {
		return nil, qi.err
	}
	if cfg == nil {
		cfg = emptyConfig
	}
	p := o.getPlanner(q, qi, cfg)
	pl, err := run(p)
	o.putPlanner(p)
	return pl, err
}

func (p *planner) optimize() (*plan.Plan, error) {
	o, q := p.o, p.q

	// Phase 1: best access path per table.
	base := p.base[:0]
	for i := range q.Tables {
		base = append(base, p.bestAccessPath(i))
	}
	p.base = base

	// Phase 2: join ordering, then the nodes of the winning join tree.
	var joined *subPlan
	switch {
	case len(base) == 1:
		joined = base[0]
	case len(base) <= o.DPTableLimit:
		joined = p.dpJoin(base)
	default:
		joined = p.greedyJoin(base)
	}
	if joined == nil {
		return nil, fmt.Errorf("opt: no join order found for query %s", q.Name)
	}
	p.build(joined)

	// Phase 3: aggregation, ordering, top.
	final := p.addAggregation(joined)
	final = p.addOrdering(final)

	// Phase 4: parallelism decision.
	serialCost := final.cost
	result := final
	if serialCost > o.ParallelThreshold {
		par := p.parallelize(final)
		if par.cost < serialCost {
			result = par
		}
	}

	return &plan.Plan{
		Root:         cloneOut(result.node),
		Query:        q,
		ConfigFP:     p.cfg.Fingerprint(),
		EstTotalCost: result.cost,
	}, nil
}

// annotate stores estimates and cost args on a node and returns the node's
// estimated cost under the planner's model.
func (p *planner) annotate(n *plan.Node, a cost.Args, width float64) float64 {
	c := p.o.Model.OpCost(n.Op, n.Mode, n.Par, a)
	n.EstRows = a.RowsOut
	n.EstRowWidth = width
	n.EstBytesProcessed = a.Bytes
	n.EstCost = c
	p.args[n.Scratch] = a
	return c
}

// selOf estimates the selectivity of one predicate.
func (p *planner) selOf(pr query.Pred) float64 {
	if pr.IsEquality() {
		return p.o.Stats.SelectivityEq(pr.Table, pr.Column, pr.Lo)
	}
	return p.o.Stats.SelectivityRange(pr.Table, pr.Column, pr.Lo, pr.Hi)
}

// selAll multiplies predicate selectivities (attribute-value independence).
func (p *planner) selAll(preds []query.Pred) float64 {
	s := 1.0
	for _, pr := range preds {
		s *= p.selOf(pr)
	}
	return s
}

// colWidth returns the byte width of a column, defaulting to 8.
func (p *planner) colWidth(table, col string) float64 {
	if t := p.o.Schema.Table(table); t != nil {
		if c := t.Column(col); c != nil {
			return float64(c.Type.Width())
		}
	}
	return 8
}

// widthOf sums column widths.
func (p *planner) widthOf(table string, cols []string) float64 {
	var w float64
	for _, c := range cols {
		w += p.colWidth(table, c)
	}
	return w
}

// estHeight estimates B+ tree height from row count.
func estHeight(rows float64) float64 {
	if rows < 2 {
		return 1
	}
	return math.Max(1, math.Ceil(math.Log(rows)/math.Log(btreeFanout)))
}

// bestAccessPath picks the cheapest way to produce the filtered rows of the
// table at ordinal ti: heap scan, columnstore scan, covering index scan, or
// index seek (with key lookup when not covering).
func (p *planner) bestAccessPath(ti int) *subPlan {
	table := p.q.Tables[ti]
	preds := p.qi.predsOn[ti]
	need := p.qi.colsUsed[ti]
	mask := uint64(1) << uint(ti)
	tv := &p.tabs[ti]
	outRows := tv.rows * p.selAll(preds)

	cands := append(p.cands[:0], p.tableScanPath(table, tv.meta, tv.rows, preds, outRows, tv.needW, mask))
	for _, ix := range p.ixsOn[ti] {
		if ix.Kind == catalog.Columnstore {
			cands = append(cands, p.columnstorePath(table, ix, tv.rows, preds, outRows, tv.needW, mask))
			continue
		}
		if sp := p.indexPath(table, tv.meta, ix, tv.rows, preds, outRows, need, tv.needW, mask); sp != nil {
			cands = append(cands, sp)
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	p.cands = cands[:0]
	return best
}

func (p *planner) tableScanPath(table string, meta *catalog.Table, rows float64, preds []query.Pred, outRows, needW float64, mask uint64) *subPlan {
	n := p.node(plan.Node{Op: plan.TableScan, Table: table, ResidualPreds: preds})
	c := p.annotate(n, cost.Args{
		RowsIn: rows, RowsOut: outRows, Bytes: rows * float64(meta.RowWidth()),
	}, needW)
	return p.sub(subPlan{node: n, tables: mask, rows: outRows, width: needW, cost: c})
}

func (p *planner) columnstorePath(table string, ix *catalog.Index, rows float64, preds []query.Pred, outRows, needW float64, mask uint64) *subPlan {
	n := p.node(plan.Node{Op: plan.ColumnstoreScan, Mode: plan.Batch, Table: table, IndexDef: ix, ResidualPreds: preds})
	c := p.annotate(n, cost.Args{
		RowsIn: rows, RowsOut: outRows, Bytes: rows * needW / cost.ColumnstoreCompression,
	}, needW)
	return p.sub(subPlan{node: n, tables: mask, rows: outRows, width: needW, cost: c, hasCS: true})
}

// seekablePrefix splits preds into the prefix satisfiable by the index key
// (equalities on leading key columns, then at most one range) and the rest.
// When several predicates constrain the same key column, an equality is
// preferred over a range: the equality keeps the prefix extensible (a range
// ends it), so it is never a worse choice. When no predicate is on the
// leading key column nothing is seekable, and rest is preds itself.
func seekablePrefix(ix *catalog.Index, preds []query.Pred) (seek, rest []query.Pred) {
	if !leadsWith(ix, preds) {
		return nil, preds
	}
	used := make([]bool, len(preds))
	for _, kc := range ix.KeyColumns {
		found := -1
		for i, pr := range preds {
			if used[i] || pr.Column != kc {
				continue
			}
			if pr.IsEquality() {
				found = i
				break // equality: best possible for this column
			}
			if found < 0 {
				found = i // first range; keep scanning for an equality
			}
		}
		if found < 0 {
			break
		}
		used[found] = true
		seek = append(seek, preds[found])
		if !preds[found].IsEquality() {
			break // a range ends the seekable prefix
		}
	}
	for i, pr := range preds {
		if !used[i] {
			rest = append(rest, pr)
		}
	}
	return seek, rest
}

// leadsWith reports whether some predicate is on ix's leading key column.
func leadsWith(ix *catalog.Index, preds []query.Pred) bool {
	if len(ix.KeyColumns) == 0 {
		return false
	}
	for _, pr := range preds {
		if pr.Column == ix.KeyColumns[0] {
			return true
		}
	}
	return false
}

// indexPath builds a seek (or covering index-scan) path for one B+ tree
// index, or nil when the index is unusable for this query.
func (p *planner) indexPath(table string, meta *catalog.Table, ix *catalog.Index, rows float64, preds []query.Pred, outRows float64, need []string, needW float64, mask uint64) *subPlan {
	seekPreds, rest := seekablePrefix(ix, preds)
	covering := ix.CoversAll(need)
	idxW := p.widthOf(table, ix.KeyColumns) + p.widthOf(table, ix.IncludedColumns) + 8

	if len(seekPreds) == 0 {
		if !covering || idxW >= float64(meta.RowWidth()) {
			return nil // no seek and no covering benefit
		}
		// Covering ordered index scan: cheaper bytes than the heap scan.
		n := p.node(plan.Node{Op: plan.IndexScan, Table: table, IndexDef: ix, ResidualPreds: preds})
		c := p.annotate(n, cost.Args{RowsIn: rows, RowsOut: outRows, Bytes: rows * idxW}, needW)
		return p.sub(subPlan{node: n, tables: mask, rows: outRows, width: needW, cost: c})
	}

	selSeek := p.selAll(seekPreds)
	fetched := rows * selSeek
	// Residual predicates evaluable on columns the index covers are applied
	// during the seek; the remainder waits for the key lookup.
	var covRes, uncovRes []query.Pred
	for _, pr := range rest {
		if ix.Covers(pr.Column) {
			covRes = append(covRes, pr)
		} else {
			uncovRes = append(uncovRes, pr)
		}
	}
	seekOut := fetched * p.selAll(covRes)
	seek := p.node(plan.Node{Op: plan.IndexSeek, Table: table, IndexDef: ix, ResidualPreds: covRes, Ann: p.ann(plan.Annotations{SeekPreds: seekPreds})})
	seekCost := p.annotate(seek, cost.Args{
		Probes: 1, Height: estHeight(rows), RowsOut: seekOut, Bytes: fetched * idxW,
	}, math.Min(idxW, needW))

	if covering {
		return p.sub(subPlan{node: seek, tables: mask, rows: seekOut, width: needW, cost: seekCost})
	}

	// Non-covering: key lookup fetches full rows, then a filter applies the
	// uncovered residual predicates. This is the plan shape whose cost the
	// optimizer systematically under-estimates (cost.OptimizerModel).
	lookup := p.node(plan.Node{Op: plan.KeyLookup, Table: table, Kids: [2]*plan.Node{seek}})
	lookCost := p.annotate(lookup, cost.Args{
		RowsIn: seekOut, RowsOut: seekOut, Bytes: seekOut * float64(meta.RowWidth()),
	}, needW)
	top := lookup
	total := seekCost + lookCost
	if len(uncovRes) > 0 {
		filter := p.node(plan.Node{Op: plan.Filter, ResidualPreds: uncovRes, Kids: [2]*plan.Node{lookup}})
		fOut := seekOut * p.selAll(uncovRes)
		total += p.annotate(filter, cost.Args{RowsIn: seekOut, RowsOut: fOut}, needW)
		top = filter
	}
	finalRows := outRows
	if len(uncovRes) == 0 {
		finalRows = seekOut
	}
	return p.sub(subPlan{node: top, tables: mask, rows: finalRows, width: needW, cost: total})
}

// joinsBetween returns the mask of the join predicates (ordinals into
// qi.joins) connecting two disjoint table sets. dpJoin reads the same mask
// from its per-set table; greedyJoin and build scan the joins for it.
func (p *planner) joinsBetween(a, b uint64) uint64 {
	var m uint64
	for i := range p.qi.joins {
		jr := &p.qi.joins[i]
		if (jr.lm&a != 0 && jr.rm&b != 0) || (jr.lm&b != 0 && jr.rm&a != 0) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// joinSel multiplies the containment-assumption selectivities of the joins
// in a mask, in ascending join ordinal (q.Joins) order.
func (p *planner) joinSel(joins uint64) float64 {
	s := 1.0
	for ; joins != 0; joins &= joins - 1 {
		s *= p.jsel[bits.TrailingZeros64(joins)]
	}
	return s
}

// joinCand is one costed way to join two inputs a and b: what a recipe
// holds besides its inputs, with no pointers, so costing a split copies no
// pointer and needs no write barrier. Only the winner of a DP cell or of a
// greedy round becomes a recipe (planner.recipe).
type joinCand struct {
	cost, rows float64
	alg        joinAlg
	swap       bool // the recipe's left input is b and its right a
	hasCS      bool
	join       int32 // ordinal into qi.joins of the driving join
	probe      int32 // index NLJ: ordinal into pvals of the probed index
}

// recipe returns c as a join recipe over its inputs a and b.
func (p *planner) recipe(c *joinCand, a, b *subPlan) subPlan {
	sp := subPlan{tables: a.tables | b.tables, rows: c.rows, width: a.width + b.width, cost: c.cost, hasCS: c.hasCS, alg: c.alg, left: a, right: b, join: int(c.join)}
	if c.swap {
		sp.left, sp.right = b, a
	}
	if c.alg == indexNLJoin {
		sp.probe = &p.pvals[c.probe]
	}
	return sp
}

// bestJoin costs every way to join a and b over the join predicates in
// between (a non-empty mask) and builds no node. It writes the cheapest
// into c when it costs strictly less than c, or in any case when have is
// false, and reports whether it wrote c. It tries hash, merge over two
// sorts, an index nested-loop join per probeable index in each direction,
// and a plain nested-loop join for a tiny inner, in that order; a later
// alternative wins only when strictly cheaper.
//
// An alternative costs its inputs plus operator costs, which are never
// negative (cost.Model.OpCost clips at 0), and adding a non-negative term
// never lowers a rounded sum. So once an alternative's partial sum reaches
// c's cost it cannot win, and its remaining OpCost calls are skipped. When
// have is false the hash alternative is taken with no comparison, so the
// first candidate is written whatever its cost, infinite or NaN included.
func (p *planner) bestJoin(c *joinCand, have bool, a, b *subPlan, between uint64) bool {
	outRows := a.rows * b.rows * p.joinSel(between)
	if outRows < 1 {
		outRows = 1
	}
	// The lowest join predicate drives the physical algorithm; any others
	// ride on the node as extra filters (build), already priced into
	// outRows above.
	ji := int32(bits.TrailingZeros64(between))
	hasCS := a.hasCS || b.hasCS
	in := a.cost + b.cost
	won := false

	// Hash join probes with the larger input and builds on the smaller; a
	// plain nested-loop join takes the smaller as its inner.
	big, small, swap := a, b, b.rows > a.rows
	if swap {
		big, small = b, a
	}
	if !have || in < c.cost {
		if h := in + p.joinCost(hashJoin, big, small, outRows, hasCS); !have || h < c.cost {
			*c = joinCand{cost: h, rows: outRows, alg: hashJoin, swap: swap, hasCS: hasCS, join: ji}
			won = true
		}
	}

	// Merge join: sort both inputs on their side of the join, then merge.
	if in < c.cost {
		if m := (a.cost + p.sortCost(a)) + (b.cost + p.sortCost(b)); m < c.cost {
			if m += p.joinCost(mergeJoin, a, b, outRows, hasCS); m < c.cost {
				*c = joinCand{cost: m, rows: outRows, alg: mergeJoin, hasCS: hasCS, join: ji}
				won = true
			}
		}
	}

	// Index nested-loop join: inner must be a single base table with an
	// index whose leading key matches the join column.
	won = p.indexNLJ(c, a, b, false, ji, outRows) || won
	won = p.indexNLJ(c, b, a, true, ji, outRows) || won

	// Plain nested-loop join, only for tiny inners.
	if small.rows <= 1000 && in < c.cost {
		if x := in + p.joinCost(nestedLoopJoin, big, small, outRows, false); x < c.cost {
			*c = joinCand{cost: x, rows: outRows, alg: nestedLoopJoin, swap: swap, hasCS: hasCS, join: ji}
			won = true
		}
	}
	return won
}

// joinCost returns the cost of a join's top node alone.
func (p *planner) joinCost(alg joinAlg, l, r *subPlan, rows float64, hasCS bool) float64 {
	op, mode := joinOp(alg, hasCS)
	return p.o.Model.OpCost(op, mode, plan.Serial, joinArgs(alg, l, r, rows))
}

// sortCost returns the cost of a Sort over in, computing it on first use.
// The cost depends only on in's rows, width and hasCS. A recipe is written
// whole, cache zeroed, once its set's best split is known, and never
// changes after, so every call returns what computing the cost afresh
// would. A zero cost is simply recomputed.
func (p *planner) sortCost(in *subPlan) float64 {
	if in.sortCost == 0 {
		in.sortCost = p.o.Model.OpCost(plan.Sort, modeOf(in.hasCS), plan.Serial, sortArgs(in))
	}
	return in.sortCost
}

// sortArgs returns the cost.Args of a Sort over in.
func sortArgs(in *subPlan) cost.Args {
	return cost.Args{RowsIn: in.rows, RowsOut: in.rows, Bytes: in.rows * in.width}
}

// sortNode wraps a subplan in a Sort.
func (p *planner) sortNode(in *subPlan, cols []query.ColRef) *subPlan {
	n := p.node(plan.Node{Op: plan.Sort, Mode: modeOf(in.hasCS), Ann: p.ann(plan.Annotations{SortCols: cols}), Kids: [2]*plan.Node{in.node}})
	c := p.annotate(n, sortArgs(in), in.width)
	return p.sub(subPlan{node: n, tables: in.tables, rows: in.rows, width: in.width, cost: in.cost + c, hasCS: in.hasCS})
}

// indexNLJ costs an index nested-loop join in which outer drives per-row
// probes into each probeable index of the inner base table, and writes it
// into c when strictly cheaper, bounded as bestJoin is; swap says outer is
// bestJoin's b. The driving join ji has one side on the inner table, and a
// probed index must lead with that side's column. Batch eligibility comes
// from the outer alone: the inner side is an index seek, never a
// columnstore.
func (p *planner) indexNLJ(c *joinCand, outer, inner *subPlan, swap bool, ji int32, outRows float64) bool {
	// Inner must be exactly one base table, with an index to probe.
	if inner.tables&(inner.tables-1) != 0 {
		return false
	}
	tv := &p.tabs[bits.TrailingZeros64(inner.tables)]
	if tv.plo == tv.phi || !(outer.cost < c.cost) {
		return false
	}
	jr := &p.qi.joins[ji]
	joinCol := jr.j.RightColumn
	if jr.lm == inner.tables {
		joinCol = jr.j.LeftColumn
	}
	m := p.o.Model
	won := false
	for k := tv.plo; k < tv.phi && outer.cost < c.cost; k++ {
		pv := &p.pvals[k]
		if pv.ix.KeyColumns[0] != joinCol {
			continue
		}
		seek, lookup, filter := probeArgs(outer, tv, pv, p.jsel[ji])
		innerCost := m.OpCost(plan.IndexSeek, plan.Row, plan.Serial, seek)
		if !pv.covers {
			innerCost += m.OpCost(plan.KeyLookup, plan.Row, plan.Serial, lookup)
			if pv.uncov {
				innerCost += m.OpCost(plan.Filter, plan.Row, plan.Serial, filter)
			}
		}
		if x := outer.cost + innerCost; x < c.cost {
			if x += p.joinCost(indexNLJoin, outer, inner, outRows, outer.hasCS); x < c.cost {
				*c = joinCand{cost: x, rows: outRows, alg: indexNLJoin, swap: swap, hasCS: outer.hasCS, join: ji, probe: int32(k)}
				won = true
			}
		}
	}
	return won
}

// probeArgs returns the cost.Args of the inner side of an index NLJ in
// which outer probes pv on table tv at per-probe selectivity sel: the seek,
// then, when pv does not cover the query, the key lookup and the filter.
// Costing and buildProbe both take them from here.
func probeArgs(outer *subPlan, tv *tableVal, pv *probeVal, sel float64) (seek, lookup, filter cost.Args) {
	fetched := outer.rows * tv.rows * sel // total rows fetched across probes
	seekOut := fetched * pv.covSel
	seek = cost.Args{Probes: outer.rows, Height: tv.height, RowsOut: seekOut, Bytes: fetched * pv.width}
	lookup = cost.Args{RowsIn: seekOut, RowsOut: seekOut, Bytes: seekOut * tv.rowW}
	filter = cost.Args{RowsIn: seekOut, RowsOut: seekOut * pv.uncovSel}
	return seek, lookup, filter
}

// build makes the plan nodes of a subplan's join recipes, bottom up, and
// returns its root. Access paths arrive built. Only the plan Optimize
// returns is built, so every node made here is kept.
func (p *planner) build(sp *subPlan) *plan.Node {
	if sp.node != nil {
		return sp.node
	}
	l := p.build(sp.left)
	var r *plan.Node
	switch sp.alg {
	case mergeJoin:
		// Sort each input on its side of the driving join.
		jr := &p.qi.joins[sp.join]
		keyL, keyR := jr.lkey, jr.rkey
		if sp.left.tables&jr.lm == 0 {
			keyL, keyR = keyR, keyL
		}
		p.build(sp.right)
		l, r = p.sortNode(sp.left, keyL).node, p.sortNode(sp.right, keyR).node
	case indexNLJoin:
		r = p.buildProbe(sp)
	default:
		r = p.build(sp.right)
	}
	op, mode := joinOp(sp.alg, sp.hasCS)
	n := p.node(plan.Node{Op: op, Mode: mode, Join: p.qi.joins[sp.join].ptr, Ann: p.ann(plan.Annotations{ExtraJoins: p.extraJoins(sp)}), Kids: [2]*plan.Node{l, r}})
	p.annotate(n, joinArgs(sp.alg, sp.left, sp.right, sp.rows), sp.width)
	sp.node = n
	return n
}

// extraJoins returns the join predicates between a join's inputs other
// than the driving one, in q.Joins order, or nil when there are none. The
// slice is heap-allocated: the returned plan keeps it.
func (p *planner) extraJoins(sp *subPlan) []query.Join {
	joins := p.joinsBetween(sp.left.tables, sp.right.tables) &^ (1 << uint(sp.join))
	if joins == 0 {
		return nil
	}
	extras := make([]query.Join, 0, bits.OnesCount64(joins))
	for ; joins != 0; joins &= joins - 1 {
		extras = append(extras, p.qi.joins[bits.TrailingZeros64(joins)].j)
	}
	return extras
}

// buildProbe makes the inner side of an index nested-loop join recipe: a
// seek on the probed index applying the predicates it covers, then, when
// it does not cover the query, a key lookup and a filter for the rest.
func (p *planner) buildProbe(sp *subPlan) *plan.Node {
	pv := sp.probe
	ix := pv.ix
	ti := bits.TrailingZeros64(sp.right.tables)
	table := p.q.Tables[ti]
	tv := &p.tabs[ti]
	var covRes, uncovRes []query.Pred
	for _, pr := range p.qi.predsOn[ti] {
		if ix.Covers(pr.Column) {
			covRes = append(covRes, pr)
		} else {
			uncovRes = append(uncovRes, pr)
		}
	}
	seekArgs, lookupArgs, filterArgs := probeArgs(sp.left, tv, pv, p.jsel[sp.join])
	seek := p.node(plan.Node{Op: plan.IndexSeek, Table: table, IndexDef: ix, ResidualPreds: covRes})
	p.annotate(seek, seekArgs, math.Min(pv.width, tv.needW))
	if pv.covers {
		return seek
	}
	lookup := p.node(plan.Node{Op: plan.KeyLookup, Table: table, Kids: [2]*plan.Node{seek}})
	p.annotate(lookup, lookupArgs, tv.needW)
	if len(uncovRes) == 0 {
		return lookup
	}
	filter := p.node(plan.Node{Op: plan.Filter, ResidualPreds: uncovRes, Kids: [2]*plan.Node{lookup}})
	p.annotate(filter, filterArgs, tv.needW)
	return filter
}

// dpJoin finds the cheapest join order by dynamic programming over
// connected table subsets. The DP table is a dense slice indexed by table
// bitmask holding one recipe per set. Sets are visited in ascending numeric
// order, which is equivalent to the classic by-size order because every
// strict subset of a set is numerically smaller, so a set's recipe is final
// before any larger set reads it.
//
// jin[set] is the mask of the joins with both sides in set, so the joins
// between two halves of a set are jin[set] &^ (jin[sub] | jin[other]). A
// set with fewer than |set|-1 joins inside cannot be connected and is
// skipped whole. Each unordered split is visited once: sub runs down the
// subsets of set without its highest table. The splits are costed into one
// joinCand holding the set's best so far, and the set's recipe is written
// once, from the winning split.
func (p *planner) dpJoin(base []*subPlan) *subPlan {
	n := len(base)
	full := uint64(1)<<uint(n) - 1
	if uint64(cap(p.dp)) < full+1 {
		p.dp = make([]*subPlan, full+1)
		p.jin = make([]uint64, full+1)
	}
	dp, jin := p.dp[:full+1], p.jin[:full+1]
	for i := range dp {
		dp[i] = nil
	}
	for _, b := range base {
		dp[b.tables] = b
	}
	// A join inside a set of two or more tables is inside the set without
	// its lowest table, inside the set without its highest, or joins the
	// two. A join of a table with itself is never between two halves and
	// is left out.
	joinsOn := p.qi.joinsOn
	for set := uint64(1); set <= full; set++ {
		lo, hi := bits.TrailingZeros64(set), 63-bits.LeadingZeros64(set)
		if lo == hi {
			jin[set] = 0
			continue
		}
		jin[set] = jin[set&^(1<<uint(lo))] | jin[set&^(1<<uint(hi))] | joinsOn[lo]&joinsOn[hi]
	}
	for set := uint64(3); set <= full; set++ {
		js := jin[set]
		if set&(set-1) == 0 || popcount(js) < popcount(set)-1 {
			continue // a single table, already seeded, or not connected
		}
		var best joinCand
		var l, r *subPlan
		rest := set &^ (1 << uint(63-bits.LeadingZeros64(set)))
		for sub := rest; sub > 0; sub = (sub - 1) & rest {
			other := set ^ sub
			a, b := dp[sub], dp[other]
			if a == nil || b == nil {
				continue
			}
			if between := js &^ (jin[sub] | jin[other]); between != 0 && p.bestJoin(&best, l != nil, a, b, between) {
				l, r = a, b
			}
		}
		if l != nil {
			dp[set] = p.sub(p.recipe(&best, l, r))
		}
	}
	return dp[full]
}

// greedyJoin repeatedly joins the cheapest connectable pair; used beyond
// the DP table limit. Pairs are costed as DP splits are, into one joinCand
// holding the round's best so far.
func (p *planner) greedyJoin(base []*subPlan) *subPlan {
	pool := append(p.gpool[:0], base...)
	for len(pool) > 1 {
		var round joinCand
		var l, r *subPlan
		var bi, bj int
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				if between := p.joinsBetween(pool[i].tables, pool[j].tables); between != 0 && p.bestJoin(&round, l != nil, pool[i], pool[j], between) {
					l, r, bi, bj = pool[i], pool[j], i, j
				}
			}
		}
		if l == nil {
			p.gpool = pool[:0]
			return nil
		}
		next := pool[:0]
		for k, sp := range pool {
			if k != bi && k != bj {
				next = append(next, sp)
			}
		}
		pool = append(next, p.sub(p.recipe(&round, l, r)))
	}
	out := pool[0]
	p.gpool = pool[:0]
	return out
}

// addAggregation appends the aggregate operator when the query groups or
// aggregates, choosing between hash aggregation and sort+stream.
func (p *planner) addAggregation(in *subPlan) *subPlan {
	if len(p.q.GroupBy) == 0 && len(p.q.Aggs) == 0 {
		return in
	}
	groups := p.estGroups(in.rows)
	outW := in.width // close enough for group rows

	hash := p.node(plan.Node{Op: plan.HashAggregate, Mode: modeOf(in.hasCS), Ann: p.ann(plan.Annotations{GroupCols: p.q.GroupBy}), Kids: [2]*plan.Node{in.node}})
	hc := p.annotate(hash, cost.Args{RowsIn: in.rows, RowsOut: groups, Bytes: in.rows * in.width}, outW)
	hashSP := p.sub(subPlan{node: hash, tables: in.tables, rows: groups, width: outW, cost: in.cost + hc, hasCS: in.hasCS})

	if len(p.q.GroupBy) == 0 {
		return hashSP // scalar aggregate: stream/hash equivalent; use hash
	}
	sorted := p.sortNode(in, p.q.GroupBy)
	stream := p.node(plan.Node{Op: plan.StreamAggregate, Ann: p.ann(plan.Annotations{GroupCols: p.q.GroupBy}), Kids: [2]*plan.Node{sorted.node}})
	sc := p.annotate(stream, cost.Args{RowsIn: in.rows, RowsOut: groups, Bytes: in.rows * in.width}, outW)
	streamSP := p.sub(subPlan{node: stream, tables: in.tables, rows: groups, width: outW, cost: sorted.cost + sc, hasCS: in.hasCS})
	// When the query also orders by the group columns, the hash path will
	// need its own sort later (over far fewer rows) while the stream path
	// gets the ordering for free; credit the hash path with that cost so
	// the comparison is fair.
	if sameCols(p.q.GroupBy, p.q.OrderBy) {
		// Ties go to the stream path: it delivers the required order.
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

// estGroups estimates the number of groups from group-column distinct
// counts, capped by input rows.
func (p *planner) estGroups(rowsIn float64) float64 {
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

// addOrdering appends Sort/Top operators for ORDER BY and LIMIT.
func (p *planner) addOrdering(in *subPlan) *subPlan {
	out := in
	if len(p.q.OrderBy) > 0 {
		// StreamAggregate output is already ordered by the group columns.
		if !(out.node.Op == plan.StreamAggregate && sameCols(p.q.GroupBy, p.q.OrderBy)) {
			out = p.sortNode(out, p.q.OrderBy)
		}
	}
	if p.q.Limit > 0 {
		outRows := math.Min(float64(p.q.Limit), out.rows)
		n := p.node(plan.Node{Op: plan.Top, Ann: p.ann(plan.Annotations{TopN: p.q.Limit}), Kids: [2]*plan.Node{out.node}})
		c := p.annotate(n, cost.Args{RowsIn: out.rows, RowsOut: outRows}, out.width)
		out = p.sub(subPlan{node: n, tables: out.tables, rows: outRows, width: out.width, cost: out.cost + c, hasCS: out.hasCS})
	}
	return out
}

func sameCols(a, b []query.ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parallelize produces the parallel alternative: every operator below a
// root Exchange runs parallel and is recosted under the believed DOP.
func (p *planner) parallelize(in *subPlan) *subPlan {
	cloned, totalCost := p.cloneRecost(in.node, plan.Parallel)
	ex := p.node(plan.Node{Op: plan.Exchange, Par: plan.Parallel, Kids: [2]*plan.Node{cloned}})
	if cloned.Mode == plan.Batch {
		ex.Mode = plan.Batch
	}
	exCost := p.annotate(ex, cost.Args{RowsIn: cloned.EstRows, RowsOut: cloned.EstRows, Bytes: cloned.EstRows * in.width}, in.width)
	return p.sub(subPlan{
		node: ex, tables: in.tables, rows: in.rows, width: in.width,
		cost: totalCost + exCost, hasCS: in.hasCS,
	})
}

// cloneRecost deep-copies a tree with the given parallelism and recosts
// every node from its stored args. Returns the clone and subtree cost.
func (p *planner) cloneRecost(n *plan.Node, par plan.Parallelism) (*plan.Node, float64) {
	a := p.args[n.Scratch]
	c := p.node(*n)
	c.Par = par
	var total float64
	for i, ch := range n.Children() {
		cc, sub := p.cloneRecost(ch, par)
		c.Kids[i] = cc
		total += sub
	}
	c.EstCost = p.o.Model.OpCost(c.Op, c.Mode, c.Par, a)
	p.args[c.Scratch] = a
	return c, total + c.EstCost
}

// countNodes returns the node and annotation-block counts of a subtree.
func countNodes(n *plan.Node) (nodes, anns int) {
	nodes = 1
	if n.Ann != nil {
		anns = 1
	}
	for _, c := range n.Children() {
		cn, ca := countNodes(c)
		nodes += cn
		anns += ca
	}
	return
}

// cloneOut copies a subtree out of the planner's arenas into compact,
// exactly-sized heap slabs (one for nodes, in pre-order, and, when some node
// carries annotations, one for annotation blocks), so the result owns no
// arena memory and survives planner recycling. Each copy's child slots point
// at the copies of its children. Scratch is zeroed on every clone.
func cloneOut(root *plan.Node) *plan.Node {
	nn, na := countNodes(root)
	nodes := make([]plan.Node, nn)
	annSlab := make([]plan.Annotations, na) // allocates nothing when na is 0
	ni, ai := 0, 0
	var walk func(n *plan.Node) *plan.Node
	walk = func(n *plan.Node) *plan.Node {
		nd := &nodes[ni]
		ni++
		*nd = *n
		nd.Scratch = 0
		if n.Ann != nil {
			annSlab[ai] = *n.Ann
			nd.Ann = &annSlab[ai]
			ai++
		}
		for i, ch := range n.Children() {
			nd.Kids[i] = walk(ch)
		}
		return nd
	}
	return walk(root)
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
