package exec

// This file preserves the seed row-at-a-time executor verbatim (modulo ref*
// renames and metrics) as a semantic reference for the vectorized engine in
// exec.go. The property tests in vector_property_test.go execute randomized
// plans on both engines and require identical rows, identical per-node
// actuals, and bit-identical WorkCost/MeasuredCost. Do not "improve" this
// file: its value is that it does not change.

import (
	"fmt"
	"sort"

	"repro/internal/engine/btree"
	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/data"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/util"
)

// refRel is an intermediate relation during reference execution.
type refRel struct {
	cols []query.ColRef
	rows [][]int64
}

func (r *refRel) colIdx(table, column string) int {
	for i, c := range r.cols {
		if c.Table == table && c.Column == column {
			return i
		}
	}
	return -1
}

type refRunState struct {
	e       *Executor
	q       *query.Query
	rng     *util.RNG
	work    float64
	meas    float64
	pos     map[*plan.Node]int
	actuals []Actual
}

// refExecute runs the plan once with the seed row-at-a-time engine.
func refExecute(e *Executor, p *plan.Plan, rng *util.RNG) (*Result, error) {
	if rng == nil {
		rng = util.NewRNG(1)
	}
	pos := preorder(p.Root)
	st := &refRunState{e: e, q: p.Query, rng: rng, pos: pos, actuals: make([]Actual, len(pos))}
	out, err := st.run(p.Root)
	if err != nil {
		return nil, err
	}
	return &Result{
		Cols:         out.cols,
		Rows:         out.rows,
		WorkCost:     st.work,
		MeasuredCost: st.meas,
		Actuals:      st.actuals,
	}, nil
}

func (st *refRunState) charge(n *plan.Node, a cost.Args) {
	c := st.e.Model.OpCost(n.Op, n.Mode, n.Par, a)
	noisy := c
	if st.e.NoiseSigma > 0 {
		noisy = c * st.rng.LogNormal(st.e.NoiseSigma)
	}
	st.actuals[st.pos[n]] = Actual{Rows: a.RowsOut, Cost: noisy}
	st.work += c
	st.meas += noisy
}

func (st *refRunState) run(n *plan.Node) (*refRel, error) {
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
		st.charge(n, cost.Args{RowsIn: float64(len(out.rows)), RowsOut: float64(len(out.rows))})
		return out, nil
	default:
		return nil, fmt.Errorf("exec: unsupported operator %v", n.Op)
	}
}

func (st *refRunState) allCols(table string) ([]query.ColRef, *data.Table, error) {
	tb := st.e.DB.Table(table)
	if tb == nil {
		return nil, nil, fmt.Errorf("exec: no data for table %q", table)
	}
	cols := make([]query.ColRef, len(tb.Meta.Columns))
	for i, c := range tb.Meta.Columns {
		cols[i] = query.ColRef{Table: table, Column: c.Name}
	}
	return cols, tb, nil
}

func refMatchAll(preds []query.Pred, tb *data.Table, row int) bool {
	for _, p := range preds {
		if !p.Matches(tb.Column(p.Column)[row]) {
			return false
		}
	}
	return true
}

func (st *refRunState) tableScan(n *plan.Node) (*refRel, error) {
	cols, tb, err := st.allCols(n.Table)
	if err != nil {
		return nil, err
	}
	nr := tb.NumRows()
	out := &refRel{cols: cols}
	colData := make([][]int64, len(cols))
	for i, c := range cols {
		colData[i] = tb.Column(c.Column)
	}
	for r := 0; r < nr; r++ {
		if refMatchAll(n.ResidualPreds, tb, r) {
			row := make([]int64, len(cols))
			for i := range cols {
				row[i] = colData[i][r]
			}
			out.rows = append(out.rows, row)
		}
	}
	st.charge(n, cost.Args{
		RowsIn:  float64(nr),
		RowsOut: float64(len(out.rows)),
		Bytes:   float64(nr) * float64(tb.Meta.RowWidth()),
	})
	return out, nil
}

func (st *refRunState) columnstoreScan(n *plan.Node) (*refRel, error) {
	out, err := st.tableScanBody(n)
	if err != nil {
		return nil, err
	}
	tb := st.e.DB.Table(n.Table)
	st.charge(n, cost.Args{
		RowsIn:  float64(tb.NumRows()),
		RowsOut: float64(len(out.rows)),
		Bytes:   float64(tb.NumRows()) * float64(tb.Meta.RowWidth()) / cost.ColumnstoreCompression,
	})
	return out, nil
}

func (st *refRunState) tableScanBody(n *plan.Node) (*refRel, error) {
	cols, tb, err := st.allCols(n.Table)
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: cols}
	for r := 0; r < tb.NumRows(); r++ {
		if refMatchAll(n.ResidualPreds, tb, r) {
			row := make([]int64, len(cols))
			for i, c := range cols {
				row[i] = tb.Column(c.Column)[r]
			}
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func refIndexMeta(n *plan.Node, db *data.Database) (*catalog.Index, error) {
	if n.IndexDef == nil {
		return nil, fmt.Errorf("exec: node %s has no index definition", n.KeyName())
	}
	if db.Table(n.IndexDef.Table) == nil {
		return nil, fmt.Errorf("exec: index %q on missing table", n.Index())
	}
	return n.IndexDef, nil
}

func (st *refRunState) indexScan(n *plan.Node) (*refRel, error) {
	ix, err := refIndexMeta(n, st.e.DB)
	if err != nil {
		return nil, err
	}
	tb := st.e.DB.Table(n.Table)
	out, cols, fetched, err := st.scanIndexRange(ix, tb, nil, nil, n.ResidualPreds)
	if err != nil {
		return nil, err
	}
	idxW := refIndexRowWidth(ix, tb.Meta)
	st.charge(n, cost.Args{
		RowsIn:  float64(tb.NumRows()),
		RowsOut: float64(len(out)),
		Bytes:   float64(tb.NumRows()) * idxW,
	})
	_ = fetched
	return &refRel{cols: cols, rows: out}, nil
}

func refSeekBounds(ix *catalog.Index, seekPreds []query.Pred) (lo, hi btree.Key) {
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

func refIndexOutputCols(ix *catalog.Index, table string) []query.ColRef {
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

func (st *refRunState) scanIndexRange(ix *catalog.Index, tb *data.Table, lo, hi btree.Key, residual []query.Pred) ([][]int64, []query.ColRef, int, error) {
	tree, err := st.e.Index(ix)
	if err != nil {
		return nil, nil, 0, err
	}
	cols := refIndexOutputCols(ix, ix.Table)
	colData := make([][]int64, len(cols)-1)
	for i := 0; i < len(cols)-1; i++ {
		colData[i] = tb.Column(cols[i].Column)
	}
	var rows [][]int64
	fetched := 0
	tree.Range(lo, hi, func(_ btree.Key, rid int32) bool {
		fetched++
		if !refMatchAll(residual, tb, int(rid)) {
			return true
		}
		row := make([]int64, len(cols))
		for i := range colData {
			row[i] = colData[i][rid]
		}
		row[len(cols)-1] = int64(rid)
		rows = append(rows, row)
		return true
	})
	return rows, cols, fetched, nil
}

func refIndexRowWidth(ix *catalog.Index, meta *catalog.Table) float64 {
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

func (st *refRunState) indexSeek(n *plan.Node) (*refRel, error) {
	ix, err := refIndexMeta(n, st.e.DB)
	if err != nil {
		return nil, err
	}
	tb := st.e.DB.Table(n.Table)
	lo, hi := refSeekBounds(ix, n.SeekPreds())
	rows, cols, fetched, err := st.scanIndexRange(ix, tb, lo, hi, n.ResidualPreds)
	if err != nil {
		return nil, err
	}
	tree, _ := st.e.Index(ix)
	st.charge(n, cost.Args{
		Probes:  1,
		Height:  float64(tree.Height()),
		RowsOut: float64(len(rows)),
		Bytes:   float64(fetched) * refIndexRowWidth(ix, tb.Meta),
	})
	return &refRel{cols: cols, rows: rows}, nil
}

func (st *refRunState) keyLookup(n *plan.Node) (*refRel, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	ridIdx := in.colIdx(n.Table, ridColumn)
	if ridIdx < 0 {
		return nil, fmt.Errorf("exec: key lookup without rid column from child")
	}
	cols, tb, err := st.allCols(n.Table)
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: cols}
	for _, r := range in.rows {
		rid := int(r[ridIdx])
		row := make([]int64, len(cols))
		for i, c := range cols {
			row[i] = tb.Column(c.Column)[rid]
		}
		out.rows = append(out.rows, row)
	}
	st.charge(n, cost.Args{
		RowsIn:  float64(len(in.rows)),
		RowsOut: float64(len(out.rows)),
		Bytes:   float64(len(in.rows)) * float64(tb.Meta.RowWidth()),
	})
	return out, nil
}

func refEvalPreds(preds []query.Pred, r *refRel, row []int64) (bool, error) {
	for _, p := range preds {
		i := r.colIdx(p.Table, p.Column)
		if i < 0 {
			return false, fmt.Errorf("exec: filter references missing column %s.%s", p.Table, p.Column)
		}
		if !p.Matches(row[i]) {
			return false, nil
		}
	}
	return true, nil
}

func (st *refRunState) filter(n *plan.Node) (*refRel, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: in.cols}
	for _, row := range in.rows {
		ok, err := refEvalPreds(n.ResidualPreds, in, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	st.charge(n, cost.Args{RowsIn: float64(len(in.rows)), RowsOut: float64(len(out.rows))})
	return out, nil
}

func refConcatRow(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func refRelBytes(r *refRel) float64 {
	return float64(len(r.rows)) * float64(len(r.cols)) * 8
}

// refExtraJoinPairs mirrors extraJoinPairs for the row-oriented reference
// executor: a predicate over (left row, right row) applying every extra
// join predicate of the node, or nil when there are none.
func refExtraJoinPairs(n *plan.Node, left, right *refRel) (func(l, r []int64) bool, error) {
	if len(n.ExtraJoins()) == 0 {
		return nil, nil
	}
	type pair struct{ li, ri int }
	ps := make([]pair, 0, len(n.ExtraJoins()))
	for i := range n.ExtraJoins() {
		je := &n.ExtraJoins()[i]
		l := left.colIdx(je.LeftTable, je.LeftColumn)
		r := right.colIdx(je.RightTable, je.RightColumn)
		if l < 0 {
			l = left.colIdx(je.RightTable, je.RightColumn)
			r = right.colIdx(je.LeftTable, je.LeftColumn)
		}
		if l < 0 || r < 0 {
			return nil, fmt.Errorf("exec: extra join columns not found for %s", je)
		}
		ps = append(ps, pair{li: l, ri: r})
	}
	return func(l, r []int64) bool {
		for _, p := range ps {
			if l[p.li] != r[p.ri] {
				return false
			}
		}
		return true
	}, nil
}

func (st *refRunState) hashJoin(n *plan.Node) (*refRel, error) {
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
	if pIdx < 0 {
		pIdx = probe.colIdx(j.RightTable, j.RightColumn)
		bIdx = build.colIdx(j.LeftTable, j.LeftColumn)
	}
	if pIdx < 0 || bIdx < 0 {
		return nil, fmt.Errorf("exec: hash join columns not found for %s", j)
	}
	extra, err := refExtraJoinPairs(n, probe, build)
	if err != nil {
		return nil, err
	}
	ht := make(map[int64][][]int64, len(build.rows))
	for _, row := range build.rows {
		ht[row[bIdx]] = append(ht[row[bIdx]], row)
	}
	out := &refRel{cols: append(append([]query.ColRef{}, probe.cols...), build.cols...)}
	for _, prow := range probe.rows {
		for _, brow := range ht[prow[pIdx]] {
			if extra != nil && !extra(prow, brow) {
				continue
			}
			out.rows = append(out.rows, refConcatRow(prow, brow))
			if len(out.rows) > MaxIntermediateRows {
				return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
			}
		}
	}
	st.charge(n, cost.Args{
		RowsIn: float64(len(probe.rows)), RowsIn2: float64(len(build.rows)),
		RowsOut: float64(len(out.rows)), Bytes: refRelBytes(probe) + refRelBytes(build),
	})
	return out, nil
}

func (st *refRunState) mergeJoin(n *plan.Node) (*refRel, error) {
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
	extra, err := refExtraJoinPairs(n, left, right)
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: append(append([]query.ColRef{}, left.cols...), right.cols...)}
	li, ri := 0, 0
	for li < len(left.rows) && ri < len(right.rows) {
		lv, rv := left.rows[li][lIdx], right.rows[ri][rIdx]
		switch {
		case lv < rv:
			li++
		case lv > rv:
			ri++
		default:
			le := li
			for le < len(left.rows) && left.rows[le][lIdx] == lv {
				le++
			}
			re := ri
			for re < len(right.rows) && right.rows[re][rIdx] == rv {
				re++
			}
			for a := li; a < le; a++ {
				for b := ri; b < re; b++ {
					if extra != nil && !extra(left.rows[a], right.rows[b]) {
						continue
					}
					out.rows = append(out.rows, refConcatRow(left.rows[a], right.rows[b]))
					if len(out.rows) > MaxIntermediateRows {
						return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
					}
				}
			}
			li, ri = le, re
		}
	}
	st.charge(n, cost.Args{
		RowsIn: float64(len(left.rows)), RowsIn2: float64(len(right.rows)),
		RowsOut: float64(len(out.rows)), Bytes: refRelBytes(left) + refRelBytes(right),
	})
	return out, nil
}

func refFindInnerSeek(n *plan.Node) []*plan.Node {
	if n.Op == plan.IndexSeek && len(n.SeekPreds()) == 0 {
		return []*plan.Node{n}
	}
	if n.Op != plan.Filter && n.Op != plan.KeyLookup {
		return nil
	}
	for _, c := range n.Children() {
		if path := refFindInnerSeek(c); path != nil {
			return append([]*plan.Node{n}, path...)
		}
	}
	return nil
}

func (st *refRunState) nestedLoopJoin(n *plan.Node) (*refRel, error) {
	outer, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	innerPath := refFindInnerSeek(n.Kids[1])
	if innerPath != nil {
		return st.indexNLJ(n, outer, innerPath)
	}
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
	extra, err := refExtraJoinPairs(n, outer, inner)
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: append(append([]query.ColRef{}, outer.cols...), inner.cols...)}
	for _, orow := range outer.rows {
		for _, irow := range inner.rows {
			if orow[oIdx] == irow[iIdx] {
				if extra != nil && !extra(orow, irow) {
					continue
				}
				out.rows = append(out.rows, refConcatRow(orow, irow))
				if len(out.rows) > MaxIntermediateRows {
					return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
				}
			}
		}
	}
	st.charge(n, cost.Args{
		RowsIn: float64(len(outer.rows)), RowsIn2: float64(len(inner.rows)),
		RowsOut: float64(len(out.rows)), Bytes: refRelBytes(inner),
	})
	return out, nil
}

func (st *refRunState) indexNLJ(n *plan.Node, outer *refRel, innerPath []*plan.Node) (*refRel, error) {
	seekNode := innerPath[len(innerPath)-1]
	ix, err := refIndexMeta(seekNode, st.e.DB)
	if err != nil {
		return nil, err
	}
	tb := st.e.DB.Table(seekNode.Table)
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

	var lookupNode, filterNode *plan.Node
	for _, pn := range innerPath[:len(innerPath)-1] {
		switch pn.Op {
		case plan.KeyLookup:
			lookupNode = pn
		case plan.Filter:
			filterNode = pn
		}
	}

	idxCols := refIndexOutputCols(ix, seekNode.Table)
	colData := make([][]int64, len(idxCols)-1)
	for i := 0; i < len(idxCols)-1; i++ {
		colData[i] = tb.Column(idxCols[i].Column)
	}
	var innerCols []query.ColRef
	var fullCols []query.ColRef
	if lookupNode != nil {
		fullCols, _, _ = st.allCols(seekNode.Table)
		innerCols = fullCols
	} else {
		innerCols = idxCols
	}
	out := &refRel{cols: append(append([]query.ColRef{}, outer.cols...), innerCols...)}

	// Extra join predicates: outer row column vs inner table column at rid,
	// applied to each probe match after the inner chain's own predicates.
	type refInljExtra struct {
		ox int     // outer column index
		iv []int64 // inner table column, indexed by rid
	}
	var extras []refInljExtra
	for i := range n.ExtraJoins() {
		je := &n.ExtraJoins()[i]
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
		extras = append(extras, refInljExtra{ox: ox, iv: tb.Column(icol)})
	}

	probes, fetched, seekOut, lookups, filtOut := 0, 0, 0, 0, 0
	for _, orow := range outer.rows {
		key := btree.Key{orow[oIdx]}
		probes++
		var matches [][]int64
		tree.Range(key, key, func(_ btree.Key, rid int32) bool {
			fetched++
			if !refMatchAll(seekNode.ResidualPreds, tb, int(rid)) {
				return true
			}
			seekOut++
			if lookupNode != nil {
				lookups++
				if filterNode != nil && !refMatchAll(filterNode.ResidualPreds, tb, int(rid)) {
					return true
				}
				filtOut++
			}
			for _, ex := range extras {
				if orow[ex.ox] != ex.iv[rid] {
					return true
				}
			}
			var irow []int64
			if lookupNode != nil {
				irow = make([]int64, len(fullCols))
				for i, c := range fullCols {
					irow[i] = tb.Column(c.Column)[rid]
				}
			} else {
				irow = make([]int64, len(idxCols))
				for i := range colData {
					irow[i] = colData[i][rid]
				}
				irow[len(idxCols)-1] = int64(rid)
			}
			matches = append(matches, irow)
			return true
		})
		for _, irow := range matches {
			out.rows = append(out.rows, refConcatRow(orow, irow))
			if len(out.rows) > MaxIntermediateRows {
				return nil, fmt.Errorf("exec: join result exceeds %d rows", MaxIntermediateRows)
			}
		}
	}

	st.charge(seekNode, cost.Args{
		Probes: float64(probes), Height: float64(tree.Height()),
		RowsOut: float64(seekOut), Bytes: float64(fetched) * refIndexRowWidth(ix, tb.Meta),
	})
	if lookupNode != nil {
		st.charge(lookupNode, cost.Args{
			RowsIn: float64(lookups), RowsOut: float64(lookups),
			Bytes: float64(lookups) * float64(tb.Meta.RowWidth()),
		})
	}
	if filterNode != nil {
		st.charge(filterNode, cost.Args{RowsIn: float64(lookups), RowsOut: float64(filtOut)})
	}
	innerRows := seekOut
	if lookupNode != nil {
		innerRows = filtOut
	}
	st.charge(n, cost.Args{
		RowsIn: float64(len(outer.rows)), RowsIn2: float64(innerRows),
		RowsOut: float64(len(out.rows)), Probes: float64(len(outer.rows)), Height: 1,
	})
	return out, nil
}

func (st *refRunState) sortOp(n *plan.Node) (*refRel, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(n.SortCols()))
	for i, c := range n.SortCols() {
		idxs[i] = in.colIdx(c.Table, c.Column)
		if idxs[i] < 0 {
			return nil, fmt.Errorf("exec: sort column %s not found", c)
		}
	}
	desc := st.q != nil && st.q.Desc && sameColRefs(n.SortCols(), st.q.OrderBy)
	rows := append([][]int64(nil), in.rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for _, i := range idxs {
			if rows[a][i] != rows[b][i] {
				if desc {
					return rows[a][i] > rows[b][i]
				}
				return rows[a][i] < rows[b][i]
			}
		}
		return false
	})
	st.charge(n, cost.Args{RowsIn: float64(len(rows)), RowsOut: float64(len(rows)), Bytes: refRelBytes(in)})
	return &refRel{cols: in.cols, rows: rows}, nil
}

func (st *refRunState) topOp(n *plan.Node) (*refRel, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	rows := in.rows
	if n.TopN() > 0 && len(rows) > n.TopN() {
		rows = rows[:n.TopN()]
	}
	st.charge(n, cost.Args{RowsIn: float64(len(in.rows)), RowsOut: float64(len(rows))})
	return &refRel{cols: in.cols, rows: rows}, nil
}

func (st *refRunState) aggregate(n *plan.Node) (*refRel, error) {
	in, err := st.run(n.Kids[0])
	if err != nil {
		return nil, err
	}
	q := st.q
	gIdxs := make([]int, len(n.GroupCols()))
	for i, c := range n.GroupCols() {
		gIdxs[i] = in.colIdx(c.Table, c.Column)
		if gIdxs[i] < 0 {
			return nil, fmt.Errorf("exec: group column %s not found", c)
		}
	}
	aIdxs := make([]int, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Func == query.Count {
			aIdxs[i] = -1
			continue
		}
		aIdxs[i] = in.colIdx(a.Col.Table, a.Col.Column)
		if aIdxs[i] < 0 {
			return nil, fmt.Errorf("exec: aggregate column %s not found", a.Col)
		}
	}

	type aggState struct {
		key   []int64
		count int64
		sums  []int64
		mins  []int64
		maxs  []int64
		seen  bool
	}
	groups := map[string]*aggState{}
	var order []string
	keyBuf := make([]byte, 0, 64)
	for _, row := range in.rows {
		keyBuf = keyBuf[:0]
		for _, gi := range gIdxs {
			v := row[gi]
			for s := 0; s < 64; s += 8 {
				keyBuf = append(keyBuf, byte(v>>uint(s)))
			}
		}
		k := string(keyBuf)
		g, ok := groups[k]
		if !ok {
			g = &aggState{
				sums: make([]int64, len(q.Aggs)),
				mins: make([]int64, len(q.Aggs)),
				maxs: make([]int64, len(q.Aggs)),
			}
			g.key = make([]int64, len(gIdxs))
			for i, gi := range gIdxs {
				g.key[i] = row[gi]
			}
			groups[k] = g
			order = append(order, k)
		}
		g.count++
		for i, ai := range aIdxs {
			if ai < 0 {
				continue
			}
			v := row[ai]
			g.sums[i] += v
			if !g.seen || v < g.mins[i] {
				g.mins[i] = v
			}
			if !g.seen || v > g.maxs[i] {
				g.maxs[i] = v
			}
		}
		g.seen = true
	}

	cols := append([]query.ColRef{}, n.GroupCols()...)
	for i, a := range q.Aggs {
		cols = append(cols, query.ColRef{Table: "", Column: fmt.Sprintf("#agg%d:%s", i, a.String())})
	}
	out := &refRel{cols: cols}
	if len(gIdxs) == 0 && len(in.rows) == 0 {
		row := make([]int64, len(cols))
		out.rows = append(out.rows, row)
	}
	for _, k := range order {
		g := groups[k]
		row := make([]int64, 0, len(cols))
		row = append(row, g.key...)
		for i, a := range q.Aggs {
			switch a.Func {
			case query.Count:
				row = append(row, g.count)
			case query.Sum:
				row = append(row, g.sums[i])
			case query.Min:
				row = append(row, g.mins[i])
			case query.Max:
				row = append(row, g.maxs[i])
			case query.Avg:
				row = append(row, g.sums[i]/g.count)
			}
		}
		out.rows = append(out.rows, row)
	}
	st.charge(n, cost.Args{RowsIn: float64(len(in.rows)), RowsOut: float64(len(out.rows)), Bytes: refRelBytes(in)})
	return out, nil
}
