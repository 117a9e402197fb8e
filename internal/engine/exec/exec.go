// Package exec implements the query executor. It runs physical plans over
// the materialized data, producing real result rows, true per-operator
// cardinalities, and the ground-truth execution cost (CPU work) under
// cost.TrueModel() with multiplicative measurement noise.
//
// The executor never consults the optimizer's estimates: the gap between a
// plan's estimated and executed cost is exactly the phenomenon the paper's
// classifier learns. Labels use the median cost over several executions, as
// in §2.2 of the paper.
//
// Execution is vectorized: operators exchange columnar batches (one []int64
// vector per column) instead of [][]int64 rows. Scans and filters compute a
// selection vector of qualifying row ids, then gather the surviving rows
// column by column into fresh vectors; joins build (left, right) pair lists
// and gather both sides. Vectors come from a sync.Pool-backed chunk arena
// scoped to one Execute call, so steady-state execution does not allocate
// per row. Cost accounting (charge order, cost.Args, and noise draws) is
// identical to the row-at-a-time engine preserved in ref_exec_test.go; the
// property tests there pin WorkCost and MeasuredCost bit-for-bit.
package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/engine/btree"
	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/data"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/obs"
	"repro/internal/util"
)

// Per-operator cost histograms, indexed by plan.Op so the hot charge() path
// does one array load instead of a name lookup. Costs are in the model's
// work units, not seconds (see DESIGN.md §7).
var mOpCost = func() [plan.NumOps]*obs.Histogram {
	var a [plan.NumOps]*obs.Histogram
	for o := 0; o < plan.NumOps; o++ {
		a[o] = obs.H("exec.op." + plan.Op(o).String() + ".cost")
	}
	return a
}()

var mExecLat = obs.H("exec.execute.latency")

// ridColumn is the pseudo-column carrying base-table row ids between an
// index seek and its key lookup.
const ridColumn = "#rid"

// MaxIntermediateRows guards against runaway intermediate results from
// catastrophically bad plans.
const MaxIntermediateRows = 4_000_000

// arenaChunk is the pooled vector chunk size in int64s (128 KiB). Requests
// larger than a chunk fall through to the garbage collector.
const arenaChunk = 16384

var chunkPool = sync.Pool{
	New: func() any {
		b := make([]int64, arenaChunk)
		return &b
	},
}

// arena hands out []int64 vectors carved from pooled chunks. All vectors are
// released together at the end of one execution; their contents are stale
// until written, so kernels must fully populate what they allocate. The zero
// value is ready to use.
type arena struct {
	chunks []*[]int64
	cur    []int64
}

func (a *arena) alloc(n int) []int64 {
	if n == 0 {
		return nil
	}
	if n > arenaChunk {
		return make([]int64, n)
	}
	if len(a.cur) < n {
		c := chunkPool.Get().(*[]int64)
		a.chunks = append(a.chunks, c)
		a.cur = *c
	}
	v := a.cur[:n:n]
	a.cur = a.cur[n:]
	return v
}

func (a *arena) release() {
	for _, c := range a.chunks {
		chunkPool.Put(c)
	}
	a.chunks = nil
	a.cur = nil
}

// Executor runs plans against one database. Execute is safe for concurrent
// use: per-execution state lives in the run, and the lazily built physical
// index cache (plus the per-table and per-index column metadata caches) is
// guarded by a mutex.
type Executor struct {
	DB    *data.Database
	Model *cost.Model
	// NoiseSigma is the standard deviation of the multiplicative
	// log-normal measurement noise applied per operator.
	NoiseSigma float64

	mu      sync.Mutex
	indexes map[string]*btree.Tree
	tcols   map[string]*tableCols
	ixcols  map[string]*ixMeta
}

// New returns an executor over db with the database's ground-truth cost
// calibration (cost.TrueModelFor) and default measurement noise.
func New(db *data.Database) *Executor {
	return &Executor{
		DB:         db,
		Model:      cost.TrueModelFor(db.Schema.Name),
		NoiseSigma: 0.06,
		indexes:    map[string]*btree.Tree{},
	}
}

// Result is the outcome of executing one plan.
type Result struct {
	// Cols and Rows are the produced relation.
	Cols []query.ColRef
	Rows [][]int64
	// WorkCost is the deterministic total work (no noise).
	WorkCost float64
	// MeasuredCost is WorkCost with measurement noise applied.
	MeasuredCost float64
	// Actuals holds one entry per plan node, in the pre-order of the
	// plan's Root.Walk. A node the run never charged reads as zero.
	Actuals []Actual
}

// Actual is what one operator did in one execution: the rows it produced
// and its measured (noisy) cost. Summed over a plan's nodes, the costs are
// the run's MeasuredCost.
type Actual struct {
	Rows float64
	Cost float64
}

// preorder numbers the nodes of a plan tree by their position in
// Root.Walk's pre-order, the order of Result.Actuals.
func preorder(root *plan.Node) map[*plan.Node]int {
	pos := map[*plan.Node]int{}
	root.Walk(func(n *plan.Node) { pos[n] = len(pos) })
	return pos
}

// tableCols is the precomputed column metadata for one base table: the
// ColRef list, the column vectors aligned with it, and a name→position map
// replacing per-access linear scans. Built once per table per executor.
type tableCols struct {
	tb     *data.Table
	refs   []query.ColRef
	data   [][]int64
	byName map[string]int
}

// ixMeta is the precomputed output shape of one index: its output ColRefs
// (keys, sorted includes, rid), the base-table vectors backing them, and the
// index row width used for byte accounting.
type ixMeta struct {
	cols  []query.ColRef
	data  [][]int64 // aligned with cols[:len(cols)-1]
	width float64
}

// tableCols returns (building and caching on demand) the column metadata
// for a table.
func (e *Executor) tableCols(table string) (*tableCols, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tc, ok := e.tcols[table]; ok {
		return tc, nil
	}
	tb := e.DB.Table(table)
	if tb == nil {
		return nil, fmt.Errorf("exec: no data for table %q", table)
	}
	tc := &tableCols{
		tb:     tb,
		refs:   make([]query.ColRef, len(tb.Meta.Columns)),
		data:   make([][]int64, len(tb.Meta.Columns)),
		byName: make(map[string]int, len(tb.Meta.Columns)),
	}
	for i, c := range tb.Meta.Columns {
		tc.refs[i] = query.ColRef{Table: table, Column: c.Name}
		tc.data[i] = tb.Column(c.Name)
		tc.byName[c.Name] = i
	}
	if e.tcols == nil {
		e.tcols = map[string]*tableCols{}
	}
	e.tcols[table] = tc
	return tc, nil
}

// ixMeta returns (building and caching on demand) the output shape of an
// index over its base table.
func (e *Executor) ixMeta(ix *catalog.Index, tc *tableCols) *ixMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := ix.ID()
	if im, ok := e.ixcols[id]; ok {
		return im
	}
	cols := indexOutputCols(ix, ix.Table)
	im := &ixMeta{
		cols:  cols,
		data:  make([][]int64, len(cols)-1),
		width: indexRowWidth(ix, tc.tb.Meta),
	}
	for i := 0; i < len(cols)-1; i++ {
		im.data[i] = tc.tb.Column(cols[i].Column)
	}
	if e.ixcols == nil {
		e.ixcols = map[string]*ixMeta{}
	}
	e.ixcols[id] = im
	return im
}

// batch is a columnar intermediate relation: one vector per column, all of
// length n. Vectors are immutable once produced — downstream operators
// gather into fresh vectors rather than writing in place, which lets scans
// without predicates alias the base table columns directly.
type batch struct {
	cols []query.ColRef
	vecs [][]int64
	n    int
}

func (b *batch) colIdx(table, column string) int {
	for i, c := range b.cols {
		if c.Table == table && c.Column == column {
			return i
		}
	}
	return -1
}

func batchBytes(b *batch) float64 {
	return float64(b.n) * float64(len(b.cols)) * 8
}

// materializeRows converts a columnar batch into freshly allocated
// row-major rows (two allocations total), so results never alias arena or
// base-table memory.
func materializeRows(b *batch) [][]int64 {
	rows := make([][]int64, b.n)
	nc := len(b.vecs)
	if b.n == 0 || nc == 0 {
		return rows
	}
	flat := make([]int64, b.n*nc)
	for j, v := range b.vecs {
		for i := 0; i < b.n; i++ {
			flat[i*nc+j] = v[i]
		}
	}
	for i := 0; i < b.n; i++ {
		rows[i] = flat[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return rows
}

// runState carries per-execution state.
type runState struct {
	e       *Executor
	q       *query.Query
	rng     *util.RNG
	work    float64
	meas    float64
	pos     map[*plan.Node]int
	actuals []Actual
	a       arena
}

// Execute runs the plan once. rng drives measurement noise only; the result
// rows and WorkCost are deterministic for a given plan and database. The
// plan is only read, so a cached plan may be executed concurrently.
func (e *Executor) Execute(p *plan.Plan, rng *util.RNG) (*Result, error) {
	if rng == nil {
		rng = util.NewRNG(1)
	}
	pos := preorder(p.Root)
	st := &runState{e: e, q: p.Query, rng: rng, pos: pos, actuals: make([]Actual, len(pos))}
	t0 := mExecLat.Start()
	out, err := st.run(p.Root)
	mExecLat.Stop(t0)
	if err != nil {
		st.a.release()
		return nil, err
	}
	res := &Result{
		Cols:         append([]query.ColRef(nil), out.cols...),
		Rows:         materializeRows(out),
		WorkCost:     st.work,
		MeasuredCost: st.meas,
		Actuals:      st.actuals,
	}
	st.a.release()
	return res, nil
}

// MedianCost executes the plan k times (at least once), run i under
// rng.SplitInt(i), and returns the median measured cost, the paper's
// robust labeling measure, with the first run's result.
func (e *Executor) MedianCost(p *plan.Plan, rng *util.RNG, k int) (float64, *Result, error) {
	if k < 1 {
		k = 1
	}
	costs := make([]float64, 0, k)
	var first *Result
	for i := 0; i < k; i++ {
		r, err := e.Execute(p, rng.SplitInt(i))
		if err != nil {
			return 0, nil, err
		}
		if i == 0 {
			first = r
		}
		costs = append(costs, r.MeasuredCost)
	}
	return util.Median(costs), first, nil
}

// Index returns (building and caching on demand) the physical B+ tree for
// an index id on a table. The build runs under the cache lock so concurrent
// executions requesting the same index construct it exactly once.
func (e *Executor) Index(ix *catalog.Index) (*btree.Tree, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := ix.ID()
	if t, ok := e.indexes[id]; ok {
		return t, nil
	}
	tb := e.DB.Table(ix.Table)
	if tb == nil {
		return nil, fmt.Errorf("exec: no data for table %q", ix.Table)
	}
	n := tb.NumRows()
	entries := make([]btree.Entry, n)
	keyCols := make([][]int64, len(ix.KeyColumns))
	for i, kc := range ix.KeyColumns {
		keyCols[i] = tb.Column(kc)
		if keyCols[i] == nil {
			return nil, fmt.Errorf("exec: index %q references missing column %q", id, kc)
		}
	}
	for r := 0; r < n; r++ {
		k := make(btree.Key, len(keyCols))
		for i := range keyCols {
			k[i] = keyCols[i][r]
		}
		entries[r] = btree.Entry{Key: k, Row: int32(r)}
	}
	t := btree.BulkLoad(entries)
	if e.indexes == nil {
		e.indexes = map[string]*btree.Tree{}
	}
	e.indexes[id] = t
	return t, nil
}

// DropIndex evicts a cached physical index (after configuration changes).
func (e *Executor) DropIndex(ix *catalog.Index) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.indexes, ix.ID())
	delete(e.ixcols, ix.ID())
}

// CachedIndexes returns the IDs of the physically built indexes currently
// held by the executor, sorted. Tests and storage accounting use it to
// check that reverted configurations do not pin index storage.
func (e *Executor) CachedIndexes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.indexes))
	for id := range e.indexes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// charge computes an operator's true cost, applies noise, and records the
// node's actuals.
func (st *runState) charge(n *plan.Node, a cost.Args) {
	c := st.e.Model.OpCost(n.Op, n.Mode, n.Par, a)
	noisy := c
	if st.e.NoiseSigma > 0 {
		noisy = c * st.rng.LogNormal(st.e.NoiseSigma)
	}
	st.actuals[st.pos[n]] = Actual{Rows: a.RowsOut, Cost: noisy}
	st.work += c
	st.meas += noisy
	mOpCost[n.Op].Observe(c)
}

// run executes the subtree rooted at n.
func (st *runState) run(n *plan.Node) (*batch, error) {
	switch n.Op {
	case plan.TableScan:
		return st.tableScan(n)
	case plan.ColumnstoreScan:
		return st.columnstoreScan(n)
	case plan.IndexScan:
		return st.indexScan(n)
	case plan.IndexSeek:
		return st.indexSeek(n)
	case plan.KeyLookup:
		return st.keyLookup(n)
	case plan.Filter:
		return st.filter(n)
	case plan.HashJoin:
		return st.hashJoin(n)
	case plan.MergeJoin:
		return st.mergeJoin(n)
	case plan.NestedLoopJoin:
		return st.nestedLoopJoin(n)
	case plan.Sort:
		return st.sortOp(n)
	case plan.Top:
		return st.topOp(n)
	case plan.HashAggregate, plan.StreamAggregate:
		return st.aggregate(n)
	case plan.Exchange:
		out, err := st.run(n.Kids[0])
		if err != nil {
			return nil, err
		}
		st.charge(n, cost.Args{RowsIn: float64(out.n), RowsOut: float64(out.n)})
		return out, nil
	default:
		return nil, fmt.Errorf("exec: unsupported operator %v", n.Op)
	}
}

// boundPred is a predicate resolved to its column vector once per operator,
// replacing the per-row name lookups of the row engine.
type boundPred struct {
	p    query.Pred
	data []int64
}

func bindPreds(preds []query.Pred, tc *tableCols) []boundPred {
	if len(preds) == 0 {
		return nil
	}
	bps := make([]boundPred, len(preds))
	for i, p := range preds {
		bps[i] = boundPred{p: p, data: tc.data[tc.byName[p.Column]]}
	}
	return bps
}

func matchBound(bps []boundPred, rid int32) bool {
	for i := range bps {
		if !bps[i].p.Matches(bps[i].data[rid]) {
			return false
		}
	}
	return true
}

// gatherTable gathers the selected base-table rows into fresh column
// vectors. The output aliases the table's shared ColRef list.
func (st *runState) gatherTable(tc *tableCols, sel []int64) *batch {
	vecs := make([][]int64, len(tc.data))
	for j, col := range tc.data {
		v := st.a.alloc(len(sel))
		for i, r := range sel {
			v[i] = col[r]
		}
		vecs[j] = v
	}
	return &batch{cols: tc.refs, vecs: vecs, n: len(sel)}
}

// gatherIndex gathers index-covered columns for the given rids; the rid
// vector itself becomes the trailing #rid column.
func (st *runState) gatherIndex(im *ixMeta, rids []int64) *batch {
	nc := len(im.cols)
	vecs := make([][]int64, nc)
	for j := 0; j < nc-1; j++ {
		col := im.data[j]
		v := st.a.alloc(len(rids))
		for i, r := range rids {
			v[i] = col[r]
		}
		vecs[j] = v
	}
	vecs[nc-1] = rids
	return &batch{cols: im.cols, vecs: vecs, n: len(rids)}
}

// gatherBatch gathers the selected rows of an intermediate batch into fresh
// vectors, preserving the input's column list.
func (st *runState) gatherBatch(in *batch, sel []int64) *batch {
	vecs := make([][]int64, len(in.vecs))
	for j, col := range in.vecs {
		v := st.a.alloc(len(sel))
		for i, r := range sel {
			v[i] = col[r]
		}
		vecs[j] = v
	}
	return &batch{cols: in.cols, vecs: vecs, n: len(sel)}
}

// scanFiltered evaluates the scan's residual conjunction as tight per-
// predicate selection loops and gathers the survivors. With no predicates
// the batch aliases the base columns outright — zero copying.
func (st *runState) scanFiltered(tc *tableCols, preds []query.Pred) *batch {
	nr := tc.tb.NumRows()
	if len(preds) == 0 {
		return &batch{cols: tc.refs, vecs: tc.data, n: nr}
	}
	bps := bindPreds(preds, tc)
	sel := st.a.alloc(nr)
	cnt := 0
	p0, d0 := bps[0].p, bps[0].data
	for r := 0; r < nr; r++ {
		if p0.Matches(d0[r]) {
			sel[cnt] = int64(r)
			cnt++
		}
	}
	for _, bp := range bps[1:] {
		k := 0
		for i := 0; i < cnt; i++ {
			r := sel[i]
			if bp.p.Matches(bp.data[r]) {
				sel[k] = r
				k++
			}
		}
		cnt = k
	}
	return st.gatherTable(tc, sel[:cnt])
}

func (st *runState) tableScan(n *plan.Node) (*batch, error) {
	tc, err := st.e.tableCols(n.Table)
	if err != nil {
		return nil, err
	}
	nr := tc.tb.NumRows()
	out := st.scanFiltered(tc, n.ResidualPreds)
	st.charge(n, cost.Args{
		RowsIn:  float64(nr),
		RowsOut: float64(out.n),
		Bytes:   float64(nr) * float64(tc.tb.Meta.RowWidth()),
	})
	return out, nil
}

func (st *runState) columnstoreScan(n *plan.Node) (*batch, error) {
	tc, err := st.e.tableCols(n.Table)
	if err != nil {
		return nil, err
	}
	nr := tc.tb.NumRows()
	out := st.scanFiltered(tc, n.ResidualPreds)
	st.charge(n, cost.Args{
		RowsIn:  float64(nr),
		RowsOut: float64(out.n),
		Bytes:   float64(nr) * float64(tc.tb.Meta.RowWidth()) / cost.ColumnstoreCompression,
	})
	return out, nil
}

// indexMetaFromNode resolves the index definition carried on a plan node.
func indexMetaFromNode(n *plan.Node, db *data.Database) (*catalog.Index, error) {
	if n.IndexDef == nil {
		return nil, fmt.Errorf("exec: node %s has no index definition", n.KeyName())
	}
	if db.Table(n.IndexDef.Table) == nil {
		return nil, fmt.Errorf("exec: index %q on missing table", n.Index())
	}
	return n.IndexDef, nil
}

// ridsInRange walks the tree in [lo,hi], applies residual predicates on
// covered columns, and returns qualifying row ids. fetched counts rows
// touched before residual filtering.
func (st *runState) ridsInRange(ix *catalog.Index, tc *tableCols, lo, hi btree.Key, residual []query.Pred) ([]int64, int, error) {
	tree, err := st.e.Index(ix)
	if err != nil {
		return nil, 0, err
	}
	bps := bindPreds(residual, tc)
	var rids []int64
	fetched := 0
	tree.Range(lo, hi, func(_ btree.Key, rid int32) bool {
		fetched++
		if !matchBound(bps, rid) {
			return true
		}
		rids = append(rids, int64(rid))
		return true
	})
	return rids, fetched, nil
}

func (st *runState) indexScan(n *plan.Node) (*batch, error) {
	ix, err := indexMetaFromNode(n, st.e.DB)
	if err != nil {
		return nil, err
	}
	tc, err := st.e.tableCols(n.Table)
	if err != nil {
		return nil, err
	}
	im := st.e.ixMeta(ix, tc)
	rids, _, err := st.ridsInRange(ix, tc, nil, nil, n.ResidualPreds)
	if err != nil {
		return nil, err
	}
	st.charge(n, cost.Args{
		RowsIn:  float64(tc.tb.NumRows()),
		RowsOut: float64(len(rids)),
		Bytes:   float64(tc.tb.NumRows()) * im.width,
	})
	return st.gatherIndex(im, rids), nil
}

// seekBounds derives the B+ tree probe range from the seek predicates.
func seekBounds(ix *catalog.Index, seekPreds []query.Pred) (lo, hi btree.Key) {
	byCol := map[string]query.Pred{}
	for _, p := range seekPreds {
		byCol[p.Column] = p
	}
	for _, kc := range ix.KeyColumns {
		p, ok := byCol[kc]
		if !ok {
			break
		}
		lo = append(lo, p.Lo)
		hi = append(hi, p.Hi)
		if !p.IsEquality() {
			break
		}
	}
	return lo, hi
}

// indexOutputCols lists the columns an index materializes, plus the rid.
func indexOutputCols(ix *catalog.Index, table string) []query.ColRef {
	var cols []query.ColRef
	seen := map[string]bool{}
	for _, c := range ix.KeyColumns {
		if !seen[c] {
			cols = append(cols, query.ColRef{Table: table, Column: c})
			seen[c] = true
		}
	}
	inc := append([]string(nil), ix.IncludedColumns...)
	sort.Strings(inc)
	for _, c := range inc {
		if !seen[c] {
			cols = append(cols, query.ColRef{Table: table, Column: c})
			seen[c] = true
		}
	}
	cols = append(cols, query.ColRef{Table: table, Column: ridColumn})
	return cols
}

func indexRowWidth(ix *catalog.Index, meta *catalog.Table) float64 {
	var w float64 = 8
	for _, c := range ix.KeyColumns {
		if col := meta.Column(c); col != nil {
			w += float64(col.Type.Width())
		}
	}
	for _, c := range ix.IncludedColumns {
		if col := meta.Column(c); col != nil {
			w += float64(col.Type.Width())
		}
	}
	return w
}

func (st *runState) indexSeek(n *plan.Node) (*batch, error) {
	ix, err := indexMetaFromNode(n, st.e.DB)
	if err != nil {
		return nil, err
	}
	tc, err := st.e.tableCols(n.Table)
	if err != nil {
		return nil, err
	}
	im := st.e.ixMeta(ix, tc)
	lo, hi := seekBounds(ix, n.SeekPreds())
	rids, fetched, err := st.ridsInRange(ix, tc, lo, hi, n.ResidualPreds)
	if err != nil {
		return nil, err
	}
	tree, _ := st.e.Index(ix)
	st.charge(n, cost.Args{
		Probes:  1,
		Height:  float64(tree.Height()),
		RowsOut: float64(len(rids)),
		Bytes:   float64(fetched) * im.width,
	})
	return st.gatherIndex(im, rids), nil
}

func (st *runState) keyLookup(n *plan.Node) (*batch, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	ridIdx := in.colIdx(n.Table, ridColumn)
	if ridIdx < 0 {
		return nil, fmt.Errorf("exec: key lookup without rid column from child")
	}
	tc, err := st.e.tableCols(n.Table)
	if err != nil {
		return nil, err
	}
	var rids []int64
	if in.n > 0 {
		rids = in.vecs[ridIdx][:in.n]
	}
	out := st.gatherTable(tc, rids)
	st.charge(n, cost.Args{
		RowsIn:  float64(in.n),
		RowsOut: float64(out.n),
		Bytes:   float64(in.n) * float64(tc.tb.Meta.RowWidth()),
	})
	return out, nil
}

func (st *runState) filter(n *plan.Node) (*batch, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if len(n.ResidualPreds) == 0 {
		st.charge(n, cost.Args{RowsIn: float64(in.n), RowsOut: float64(in.n)})
		return in, nil
	}
	// Resolve each predicate's column against the batch once, up front.
	pvecs := make([][]int64, len(n.ResidualPreds))
	for i, p := range n.ResidualPreds {
		ci := in.colIdx(p.Table, p.Column)
		if ci < 0 {
			return nil, fmt.Errorf("exec: filter references missing column %s.%s", p.Table, p.Column)
		}
		pvecs[i] = in.vecs[ci]
	}
	sel := st.a.alloc(in.n)
	cnt := 0
	p0, d0 := n.ResidualPreds[0], pvecs[0]
	for r := 0; r < in.n; r++ {
		if p0.Matches(d0[r]) {
			sel[cnt] = int64(r)
			cnt++
		}
	}
	for i := 1; i < len(n.ResidualPreds); i++ {
		p, d := n.ResidualPreds[i], pvecs[i]
		k := 0
		for j := 0; j < cnt; j++ {
			r := sel[j]
			if p.Matches(d[r]) {
				sel[k] = r
				k++
			}
		}
		cnt = k
	}
	out := st.gatherBatch(in, sel[:cnt])
	st.charge(n, cost.Args{RowsIn: float64(in.n), RowsOut: float64(out.n)})
	return out, nil
}

// joinGather materializes a join's (left, right) pair lists into the output
// batch: left columns gathered by li, right columns by ri.
func (st *runState) joinGather(left, right *batch, li, ri []int64) *batch {
	cols := append(append([]query.ColRef{}, left.cols...), right.cols...)
	vecs := make([][]int64, len(left.vecs)+len(right.vecs))
	for j, col := range left.vecs {
		v := st.a.alloc(len(li))
		for i, r := range li {
			v[i] = col[r]
		}
		vecs[j] = v
	}
	off := len(left.vecs)
	for j, col := range right.vecs {
		v := st.a.alloc(len(ri))
		for i, r := range ri {
			v[i] = col[r]
		}
		vecs[off+j] = v
	}
	return &batch{cols: cols, vecs: vecs, n: len(li)}
}

// extraJoinPairs resolves the column vectors of a node's extra join
// predicates against the two input batches and returns a predicate over
// (left row, right row) pairs, or nil when the node has none. Join
// operators apply it to every match of the driving predicate: the first
// join predicate picks the physical algorithm, the rest filter its output.
func extraJoinPairs(n *plan.Node, left, right *batch) (func(l, r int64) bool, error) {
	joins := n.ExtraJoins()
	if len(joins) == 0 {
		return nil, nil
	}
	type pair struct{ lv, rv []int64 }
	ps := make([]pair, 0, len(joins))
	for i := range joins {
		je := &joins[i]
		l := left.colIdx(je.LeftTable, je.LeftColumn)
		r := right.colIdx(je.RightTable, je.RightColumn)
		if l < 0 {
			l = left.colIdx(je.RightTable, je.RightColumn)
			r = right.colIdx(je.LeftTable, je.LeftColumn)
		}
		if l < 0 || r < 0 {
			return nil, fmt.Errorf("exec: extra join columns not found for %s", je)
		}
		ps = append(ps, pair{lv: left.vecs[l], rv: right.vecs[r]})
	}
	return func(l, r int64) bool {
		for _, p := range ps {
			if p.lv[l] != p.rv[r] {
				return false
			}
		}
		return true
	}, nil
}

func (st *runState) hashJoin(n *plan.Node) (*batch, error) {
	probe, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	build, err := st.run(n.Kids[1])
	if err != nil {
		return nil, err
	}
	j := n.Join
	pIdx := probe.colIdx(j.LeftTable, j.LeftColumn)
	bIdx := build.colIdx(j.RightTable, j.RightColumn)
	if pIdx < 0 { // join sides may be flipped relative to children
		pIdx = probe.colIdx(j.RightTable, j.RightColumn)
		bIdx = build.colIdx(j.LeftTable, j.LeftColumn)
	}
	if pIdx < 0 || bIdx < 0 {
		return nil, fmt.Errorf("exec: hash join columns not found for %s", j)
	}
	pk, bk := probe.vecs[pIdx], build.vecs[bIdx]
	// Chained hash table over the build side: head holds 1-based first
	// entry per key, next links entries. Building back to front makes each
	// chain iterate in build order, matching the row engine's bucket order.
	head := make(map[int64]int64, build.n)
	next := st.a.alloc(build.n)
	for i := build.n - 1; i >= 0; i-- {
		k := bk[i]
		next[i] = head[k]
		head[k] = int64(i) + 1
	}
	extra, err := extraJoinPairs(n, probe, build)
	if err != nil {
		return nil, err
	}
	var pi, bi []int64
	for i := 0; i < probe.n; i++ {
		for e := head[pk[i]]; e != 0; e = next[e-1] {
			if extra != nil && !extra(int64(i), e-1) {
				continue
			}
			pi = append(pi, int64(i))
			bi = append(bi, e-1)
			if len(pi) > MaxIntermediateRows {
				return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
			}
		}
	}
	out := st.joinGather(probe, build, pi, bi)
	st.charge(n, cost.Args{
		RowsIn: float64(probe.n), RowsIn2: float64(build.n),
		RowsOut: float64(out.n), Bytes: batchBytes(probe) + batchBytes(build),
	})
	return out, nil
}

func (st *runState) mergeJoin(n *plan.Node) (*batch, error) {
	left, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	right, err := st.run(n.Kids[1])
	if err != nil {
		return nil, err
	}
	j := n.Join
	lIdx := left.colIdx(j.LeftTable, j.LeftColumn)
	rIdx := right.colIdx(j.RightTable, j.RightColumn)
	if lIdx < 0 {
		lIdx = left.colIdx(j.RightTable, j.RightColumn)
		rIdx = right.colIdx(j.LeftTable, j.LeftColumn)
	}
	if lIdx < 0 || rIdx < 0 {
		return nil, fmt.Errorf("exec: merge join columns not found for %s", j)
	}
	extra, err := extraJoinPairs(n, left, right)
	if err != nil {
		return nil, err
	}
	lk, rk := left.vecs[lIdx], right.vecs[rIdx]
	var li, ri []int64
	a, b := 0, 0
	for a < left.n && b < right.n {
		lv, rv := lk[a], rk[b]
		switch {
		case lv < rv:
			a++
		case lv > rv:
			b++
		default:
			// Match runs on both sides.
			ae := a
			for ae < left.n && lk[ae] == lv {
				ae++
			}
			be := b
			for be < right.n && rk[be] == rv {
				be++
			}
			for x := a; x < ae; x++ {
				for y := b; y < be; y++ {
					if extra != nil && !extra(int64(x), int64(y)) {
						continue
					}
					li = append(li, int64(x))
					ri = append(ri, int64(y))
					if len(li) > MaxIntermediateRows {
						return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
					}
				}
			}
			a, b = ae, be
		}
	}
	out := st.joinGather(left, right, li, ri)
	st.charge(n, cost.Args{
		RowsIn: float64(left.n), RowsIn2: float64(right.n),
		RowsOut: float64(out.n), Bytes: batchBytes(left) + batchBytes(right),
	})
	return out, nil
}

// findInnerSeek locates the NLJ-driven index seek (one with no seek
// predicates) in an inner subtree, returning the path of nodes from the top
// of the subtree down to it. Only Filter and KeyLookup nodes may sit above
// the driven seek: anything else means the inner side is a general subtree
// (a plain nested-loop join), not a per-probe index chain.
func findInnerSeek(n *plan.Node) []*plan.Node {
	if n.Op == plan.IndexSeek && len(n.SeekPreds()) == 0 {
		return []*plan.Node{n}
	}
	if n.Op != plan.Filter && n.Op != plan.KeyLookup {
		return nil
	}
	for _, c := range n.Children() {
		if path := findInnerSeek(c); path != nil {
			return append([]*plan.Node{n}, path...)
		}
	}
	return nil
}

func (st *runState) nestedLoopJoin(n *plan.Node) (*batch, error) {
	outer, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	innerPath := findInnerSeek(n.Kids[1])
	if innerPath != nil {
		return st.indexNLJ(n, outer, innerPath)
	}
	// Plain nested loops: materialize the inner once.
	inner, err := st.run(n.Kids[1])
	if err != nil {
		return nil, err
	}
	j := n.Join
	oIdx := outer.colIdx(j.LeftTable, j.LeftColumn)
	iIdx := inner.colIdx(j.RightTable, j.RightColumn)
	if oIdx < 0 {
		oIdx = outer.colIdx(j.RightTable, j.RightColumn)
		iIdx = inner.colIdx(j.LeftTable, j.LeftColumn)
	}
	if oIdx < 0 || iIdx < 0 {
		return nil, fmt.Errorf("exec: NLJ columns not found for %s", j)
	}
	extra, err := extraJoinPairs(n, outer, inner)
	if err != nil {
		return nil, err
	}
	ok, ik := outer.vecs[oIdx], inner.vecs[iIdx]
	var oi, ii []int64
	for x := 0; x < outer.n; x++ {
		v := ok[x]
		for y := 0; y < inner.n; y++ {
			if v == ik[y] {
				if extra != nil && !extra(int64(x), int64(y)) {
					continue
				}
				oi = append(oi, int64(x))
				ii = append(ii, int64(y))
				if len(oi) > MaxIntermediateRows {
					return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
				}
			}
		}
	}
	out := st.joinGather(outer, inner, oi, ii)
	st.charge(n, cost.Args{
		RowsIn: float64(outer.n), RowsIn2: float64(inner.n),
		RowsOut: float64(out.n), Bytes: batchBytes(inner),
	})
	return out, nil
}

// indexNLJ drives per-outer-row probes into the inner index, accounting
// work on the inner seek/lookup/filter nodes as production executors do
// (per-execution actuals summed across probes).
func (st *runState) indexNLJ(n *plan.Node, outer *batch, innerPath []*plan.Node) (*batch, error) {
	seekNode := innerPath[len(innerPath)-1]
	ix, err := indexMetaFromNode(seekNode, st.e.DB)
	if err != nil {
		return nil, err
	}
	tc, err := st.e.tableCols(seekNode.Table)
	if err != nil {
		return nil, err
	}
	tree, err := st.e.Index(ix)
	if err != nil {
		return nil, err
	}
	j := n.Join
	innerColName := j.ColumnFor(seekNode.Table)
	if innerColName == "" {
		return nil, fmt.Errorf("exec: index NLJ join %s does not touch inner table %s", j, seekNode.Table)
	}
	oIdx := outer.colIdx(j.LeftTable, j.LeftColumn)
	if oIdx < 0 {
		oIdx = outer.colIdx(j.RightTable, j.RightColumn)
	}
	if oIdx < 0 {
		return nil, fmt.Errorf("exec: index NLJ outer join column not found for %s", j)
	}
	if ix.KeyColumns[0] != innerColName {
		return nil, fmt.Errorf("exec: index NLJ key mismatch: %s vs %s", ix.KeyColumns[0], innerColName)
	}

	// Identify the optional lookup and filter stages of the inner chain.
	var lookupNode, filterNode *plan.Node
	for _, pn := range innerPath[:len(innerPath)-1] {
		switch pn.Op {
		case plan.KeyLookup:
			lookupNode = pn
		case plan.Filter:
			filterNode = pn
		}
	}

	im := st.e.ixMeta(ix, tc)
	seekPreds := bindPreds(seekNode.ResidualPreds, tc)
	var filtPreds []boundPred
	if filterNode != nil {
		filtPreds = bindPreds(filterNode.ResidualPreds, tc)
	}

	// Extra join predicates compare an outer batch column against an inner
	// table column addressed by rid; the join applies them to each probe
	// match after the inner chain's own predicates.
	type inljExtra struct {
		ov []int64 // outer batch column
		iv []int64 // inner table column, indexed by rid
	}
	var extras []inljExtra
	joins := n.ExtraJoins()
	for i := range joins {
		je := &joins[i]
		icol := je.ColumnFor(seekNode.Table)
		if icol == "" {
			return nil, fmt.Errorf("exec: extra join %s does not touch inner table %s", je, seekNode.Table)
		}
		ot, oc := je.LeftTable, je.LeftColumn
		if ot == seekNode.Table {
			ot, oc = je.RightTable, je.RightColumn
		}
		ox := outer.colIdx(ot, oc)
		if ox < 0 {
			return nil, fmt.Errorf("exec: extra join outer column not found for %s", je)
		}
		extras = append(extras, inljExtra{ov: outer.vecs[ox], iv: tc.data[tc.byName[icol]]})
	}

	okey := outer.vecs[oIdx]
	var oi, rids []int64
	probes, fetched, seekOut, lookups, filtOut := 0, 0, 0, 0, 0
	for i := 0; i < outer.n; i++ {
		key := btree.Key{okey[i]}
		probes++
		tree.Range(key, key, func(_ btree.Key, rid int32) bool {
			fetched++
			if !matchBound(seekPreds, rid) {
				return true
			}
			seekOut++
			if lookupNode != nil {
				lookups++
				if filterNode != nil && !matchBound(filtPreds, rid) {
					return true
				}
				filtOut++
			}
			for _, ex := range extras {
				if ex.ov[i] != ex.iv[rid] {
					return true
				}
			}
			oi = append(oi, int64(i))
			rids = append(rids, int64(rid))
			return true
		})
		if len(oi) > MaxIntermediateRows {
			return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
		}
	}

	var inner *batch
	if lookupNode != nil {
		inner = st.gatherTable(tc, rids)
	} else {
		inner = st.gatherIndex(im, rids)
	}
	outerSel := st.gatherBatch(outer, oi)
	out := &batch{
		cols: append(append([]query.ColRef{}, outer.cols...), inner.cols...),
		vecs: append(append(make([][]int64, 0, len(outerSel.vecs)+len(inner.vecs)), outerSel.vecs...), inner.vecs...),
		n:    len(oi),
	}

	// Charge the inner chain with summed per-probe work.
	st.charge(seekNode, cost.Args{
		Probes: float64(probes), Height: float64(tree.Height()),
		RowsOut: float64(seekOut), Bytes: float64(fetched) * im.width,
	})
	if lookupNode != nil {
		st.charge(lookupNode, cost.Args{
			RowsIn: float64(lookups), RowsOut: float64(lookups),
			Bytes: float64(lookups) * float64(tc.tb.Meta.RowWidth()),
		})
	}
	if filterNode != nil {
		st.charge(filterNode, cost.Args{RowsIn: float64(lookups), RowsOut: float64(filtOut)})
	}
	// Mirror the optimizer's INLJ costing: one probe dispatched per outer
	// row at Height 1 (the seek above carries the tree descent), with the
	// inner-side delivered rows in RowsIn2 like the plain NLJ path.
	innerRows := seekOut
	if lookupNode != nil {
		innerRows = filtOut
	}
	st.charge(n, cost.Args{
		RowsIn: float64(outer.n), RowsIn2: float64(innerRows),
		RowsOut: float64(out.n), Probes: float64(outer.n), Height: 1,
	})
	return out, nil
}

func (st *runState) sortOp(n *plan.Node) (*batch, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	sortCols := n.SortCols()
	keys := make([][]int64, len(sortCols))
	for i, c := range sortCols {
		ci := in.colIdx(c.Table, c.Column)
		if ci < 0 {
			return nil, fmt.Errorf("exec: sort column %s not found", c)
		}
		keys[i] = in.vecs[ci]
	}
	desc := st.q != nil && st.q.Desc && sameColRefs(sortCols, st.q.OrderBy)
	perm := st.a.alloc(in.n)
	for i := range perm {
		perm[i] = int64(i)
	}
	slices.SortStableFunc(perm, func(pa, pb int64) int {
		for _, kv := range keys {
			if kv[pa] == kv[pb] {
				continue
			}
			if (kv[pa] < kv[pb]) != desc {
				return -1
			}
			return 1
		}
		return 0
	})
	out := st.gatherBatch(in, perm)
	st.charge(n, cost.Args{RowsIn: float64(in.n), RowsOut: float64(out.n), Bytes: batchBytes(in)})
	return out, nil
}

func sameColRefs(a, b []query.ColRef) bool {
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

func (st *runState) topOp(n *plan.Node) (*batch, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	outN := in.n
	if top := n.TopN(); top > 0 && outN > top {
		outN = top
	}
	vecs := make([][]int64, len(in.vecs))
	for j, v := range in.vecs {
		vecs[j] = v[:outN]
	}
	st.charge(n, cost.Args{RowsIn: float64(in.n), RowsOut: float64(outN)})
	return &batch{cols: in.cols, vecs: vecs, n: outN}, nil
}

// aggregate evaluates the query's group-by and aggregate list. Group state
// is dense: a map from encoded key to group ordinal (looked up with the
// alloc-free string(keyBuf) idiom) plus flat accumulator arrays indexed by
// ordinal, in first-seen order.
func (st *runState) aggregate(n *plan.Node) (*batch, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	q := st.q
	groupCols := n.GroupCols()
	gvs := make([][]int64, len(groupCols))
	for i, c := range groupCols {
		ci := in.colIdx(c.Table, c.Column)
		if ci < 0 {
			return nil, fmt.Errorf("exec: group column %s not found", c)
		}
		gvs[i] = in.vecs[ci]
	}
	nAggs := len(q.Aggs)
	avs := make([][]int64, nAggs)
	for i, a := range q.Aggs {
		if a.Func == query.Count {
			continue
		}
		ci := in.colIdx(a.Col.Table, a.Col.Column)
		if ci < 0 {
			return nil, fmt.Errorf("exec: aggregate column %s not found", a.Col)
		}
		avs[i] = in.vecs[ci]
	}

	nGroupCols := len(gvs)
	groups := make(map[string]int)
	var gkeys []int64            // nGroups × nGroupCols, insertion order
	var counts []int64           // per group
	var sums, mins, maxs []int64 // nGroups × nAggs, flattened
	keyBuf := make([]byte, 0, 64)
	for r := 0; r < in.n; r++ {
		keyBuf = keyBuf[:0]
		for _, gv := range gvs {
			v := gv[r]
			for s := 0; s < 64; s += 8 {
				keyBuf = append(keyBuf, byte(v>>uint(s)))
			}
		}
		gi, ok := groups[string(keyBuf)]
		if !ok {
			gi = len(counts)
			groups[string(keyBuf)] = gi
			for _, gv := range gvs {
				gkeys = append(gkeys, gv[r])
			}
			counts = append(counts, 0)
			for a := 0; a < nAggs; a++ {
				sums = append(sums, 0)
				mins = append(mins, 0)
				maxs = append(maxs, 0)
			}
		}
		first := counts[gi] == 0
		counts[gi]++
		base := gi * nAggs
		for a := 0; a < nAggs; a++ {
			if avs[a] == nil {
				continue
			}
			v := avs[a][r]
			sums[base+a] += v
			if first || v < mins[base+a] {
				mins[base+a] = v
			}
			if first || v > maxs[base+a] {
				maxs[base+a] = v
			}
		}
	}

	cols := append([]query.ColRef{}, groupCols...)
	for i, a := range q.Aggs {
		cols = append(cols, query.ColRef{Table: "", Column: fmt.Sprintf("#agg%d:%s", i, a.String())})
	}
	nGroups := len(counts)
	outN := nGroups
	scalarEmpty := nGroupCols == 0 && in.n == 0
	if scalarEmpty {
		// Scalar aggregate over empty input yields a single zero row.
		outN = 1
	}
	vecs := make([][]int64, len(cols))
	for j := range vecs {
		vecs[j] = st.a.alloc(outN)
		if scalarEmpty {
			vecs[j][0] = 0
		}
	}
	for g := 0; g < nGroups; g++ {
		for k := 0; k < nGroupCols; k++ {
			vecs[k][g] = gkeys[g*nGroupCols+k]
		}
		base := g * nAggs
		for a, ag := range q.Aggs {
			var v int64
			switch ag.Func {
			case query.Count:
				v = counts[g]
			case query.Sum:
				v = sums[base+a]
			case query.Min:
				v = mins[base+a]
			case query.Max:
				v = maxs[base+a]
			case query.Avg:
				v = sums[base+a] / counts[g]
			}
			vecs[nGroupCols+a][g] = v
		}
	}
	st.charge(n, cost.Args{RowsIn: float64(in.n), RowsOut: float64(outN), Bytes: batchBytes(in)})
	return &batch{cols: cols, vecs: vecs, n: outN}, nil
}
