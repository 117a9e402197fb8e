// Package query defines the logical query model of the engine: single-block
// select-project-join-aggregate queries with conjunctive range/equality
// predicates, equijoins, group-by aggregation, ordering, and top-k.
//
// Queries carry a template hash (constants stripped) mirroring the query
// hash Azure SQL Database derives from the abstract syntax tree, which the
// paper uses to group plans of the same query across configurations.
package query

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"repro/internal/engine/catalog"
)

// Open bounds for range predicates.
const (
	NoLo = math.MinInt64
	NoHi = math.MaxInt64
)

// Pred is a conjunctive predicate Lo <= table.column <= Hi (inclusive).
// Lo == Hi expresses equality; NoLo/NoHi leave a side open.
type Pred struct {
	Table  string
	Column string
	Lo, Hi int64
}

// IsEquality reports whether the predicate pins the column to one value.
func (p Pred) IsEquality() bool { return p.Lo == p.Hi }

// Matches reports whether a value satisfies the predicate.
func (p Pred) Matches(v int64) bool { return v >= p.Lo && v <= p.Hi }

// String renders the predicate as SQL.
func (p Pred) String() string {
	col := p.Table + "." + p.Column
	switch {
	case p.IsEquality():
		return fmt.Sprintf("%s = %d", col, p.Lo)
	case p.Lo == NoLo:
		return fmt.Sprintf("%s <= %d", col, p.Hi)
	case p.Hi == NoHi:
		return fmt.Sprintf("%s >= %d", col, p.Lo)
	default:
		return fmt.Sprintf("%s BETWEEN %d AND %d", col, p.Lo, p.Hi)
	}
}

// Join is an equijoin between two table columns.
type Join struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// String renders the join condition as SQL.
func (j Join) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
}

// Touches reports whether the join references the table.
func (j Join) Touches(table string) bool {
	return j.LeftTable == table || j.RightTable == table
}

// ColumnFor returns the join column on the given table's side, or "".
func (j Join) ColumnFor(table string) string {
	switch table {
	case j.LeftTable:
		return j.LeftColumn
	case j.RightTable:
		return j.RightColumn
	default:
		return ""
	}
}

// ColRef names a table column.
type ColRef struct {
	Table  string
	Column string
}

// String renders the reference as table.column.
func (c ColRef) String() string { return c.Table + "." + c.Column }

// AggFunc enumerates the aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
	Avg
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Agg is one aggregate expression. Count ignores Col.
type Agg struct {
	Func AggFunc
	Col  ColRef
}

// String renders the aggregate as SQL.
func (a Agg) String() string {
	if a.Func == Count {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Col)
}

// Query is a single-block logical query.
type Query struct {
	// Name labels the query within its workload (for example "q7").
	Name string
	// Tables are the referenced tables.
	Tables []string
	// Preds are conjunctive filters.
	Preds []Pred
	// Joins connect the tables; the join graph must keep Tables connected.
	Joins []Join
	// Select are the projected columns (ignored when Aggs is non-empty).
	Select []ColRef
	// GroupBy and Aggs express aggregation; both empty means plain select.
	GroupBy []ColRef
	Aggs    []Agg
	// OrderBy / Desc / Limit express ordering and top-k (Limit 0 = all).
	OrderBy []ColRef
	Desc    bool
	Limit   int
	// Weight is the workload weight s_i of the query.
	Weight float64
}

// PredsOn returns the predicates filtering the given table.
func (q *Query) PredsOn(table string) []Pred {
	var out []Pred
	for _, p := range q.Preds {
		if p.Table == table {
			out = append(out, p)
		}
	}
	return out
}

// JoinsOn returns the joins touching the given table.
func (q *Query) JoinsOn(table string) []Join {
	var out []Join
	for _, j := range q.Joins {
		if j.Touches(table) {
			out = append(out, j)
		}
	}
	return out
}

// HasTable reports whether the query references the table.
func (q *Query) HasTable(table string) bool {
	for _, t := range q.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// ColumnsUsed returns every column of the given table the query touches
// (predicates, joins, projection, grouping, aggregation, ordering), sorted.
// The optimizer uses this for covering-index checks; the tuner for
// candidate generation.
func (q *Query) ColumnsUsed(table string) []string {
	set := map[string]bool{}
	for _, p := range q.Preds {
		if p.Table == table {
			set[p.Column] = true
		}
	}
	for _, j := range q.Joins {
		if c := j.ColumnFor(table); c != "" {
			set[c] = true
		}
	}
	for _, c := range q.Select {
		if c.Table == table {
			set[c.Column] = true
		}
	}
	for _, c := range q.GroupBy {
		if c.Table == table {
			set[c.Column] = true
		}
	}
	for _, a := range q.Aggs {
		if a.Func != Count && a.Col.Table == table {
			set[a.Col.Column] = true
		}
	}
	for _, c := range q.OrderBy {
		if c.Table == table {
			set[c.Column] = true
		}
	}
	cols := make([]string, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// Validate checks that the query is well-formed against a schema: all
// tables and columns exist, joins touch referenced tables, and the join
// graph connects every table (no cross products).
func (q *Query) Validate(s *catalog.Schema) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query %s: no tables", q.Name)
	}
	for _, t := range q.Tables {
		if s.Table(t) == nil {
			return fmt.Errorf("query %s: unknown table %q", q.Name, t)
		}
	}
	checkCol := func(table, col, what string) error {
		tb := s.Table(table)
		if tb == nil || tb.ColumnIndex(col) < 0 {
			return fmt.Errorf("query %s: unknown column %s.%s in %s", q.Name, table, col, what)
		}
		if !q.HasTable(table) {
			return fmt.Errorf("query %s: %s references unlisted table %q", q.Name, what, table)
		}
		return nil
	}
	for _, p := range q.Preds {
		if err := checkCol(p.Table, p.Column, "predicate"); err != nil {
			return err
		}
		if p.Lo > p.Hi {
			return fmt.Errorf("query %s: empty predicate range on %s.%s", q.Name, p.Table, p.Column)
		}
	}
	for _, j := range q.Joins {
		if err := checkCol(j.LeftTable, j.LeftColumn, "join"); err != nil {
			return err
		}
		if err := checkCol(j.RightTable, j.RightColumn, "join"); err != nil {
			return err
		}
	}
	for _, c := range q.Select {
		if err := checkCol(c.Table, c.Column, "select"); err != nil {
			return err
		}
	}
	for _, c := range q.GroupBy {
		if err := checkCol(c.Table, c.Column, "group by"); err != nil {
			return err
		}
	}
	for _, a := range q.Aggs {
		if a.Func != Count {
			if err := checkCol(a.Col.Table, a.Col.Column, "aggregate"); err != nil {
				return err
			}
		}
	}
	for _, c := range q.OrderBy {
		if err := checkCol(c.Table, c.Column, "order by"); err != nil {
			return err
		}
	}
	if len(q.Tables) > 1 && !q.connected() {
		return fmt.Errorf("query %s: join graph does not connect all tables", q.Name)
	}
	if len(q.Select) == 0 && len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		return fmt.Errorf("query %s: no output (empty select and no aggregates)", q.Name)
	}
	return nil
}

// connected reports whether the join graph spans all tables.
func (q *Query) connected() bool {
	if len(q.Tables) == 0 {
		return true
	}
	adj := map[string][]string{}
	for _, j := range q.Joins {
		adj[j.LeftTable] = append(adj[j.LeftTable], j.RightTable)
		adj[j.RightTable] = append(adj[j.RightTable], j.LeftTable)
	}
	seen := map[string]bool{q.Tables[0]: true}
	frontier := []string{q.Tables[0]}
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, n := range adj[t] {
			if !seen[n] {
				seen[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	for _, t := range q.Tables {
		if !seen[t] {
			return false
		}
	}
	return true
}

// SQL renders the query as a SQL string for display and debugging.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var sel []string
	for _, c := range q.GroupBy {
		sel = append(sel, c.String())
	}
	for _, a := range q.Aggs {
		sel = append(sel, a.String())
	}
	if len(sel) == 0 {
		for _, c := range q.Select {
			sel = append(sel, c.String())
		}
	}
	if len(sel) == 0 {
		sel = []string{"*"}
	}
	b.WriteString(strings.Join(sel, ", "))
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		var g []string
		for _, c := range q.GroupBy {
			g = append(g, c.String())
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(g, ", "))
	}
	if len(q.OrderBy) > 0 {
		var o []string
		for _, c := range q.OrderBy {
			o = append(o, c.String())
		}
		b.WriteString(" ORDER BY ")
		b.WriteString(strings.Join(o, ", "))
		if q.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Fingerprint returns a canonical string identifying the query *including*
// predicate constants: two queries share a fingerprint only when they are
// the same named query with an identical query tree. Unlike TemplateHash
// (which strips constants to group parameterizations of one template), the
// fingerprint distinguishes parameterizations — plan caches must key on it,
// because different constants select different plans.
func (q *Query) Fingerprint() string {
	return q.Name + "\x00" + q.SQL()
}

// TemplateHash returns a hash of the query with predicate constants
// stripped: two parameterizations of the same template share a hash. This
// mirrors the AST-derived query hash of Azure SQL Database (§2.3).
func (q *Query) TemplateHash() uint64 {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	write("T")
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables)
	write(tables...)
	write("P")
	preds := make([]string, 0, len(q.Preds))
	for _, p := range q.Preds {
		shape := "range"
		switch {
		case p.IsEquality():
			shape = "eq"
		case p.Lo == NoLo:
			shape = "le"
		case p.Hi == NoHi:
			shape = "ge"
		}
		preds = append(preds, p.Table+"."+p.Column+":"+shape)
	}
	sort.Strings(preds)
	write(preds...)
	write("J")
	joins := make([]string, 0, len(q.Joins))
	for _, j := range q.Joins {
		l, r := j.LeftTable+"."+j.LeftColumn, j.RightTable+"."+j.RightColumn
		if l > r {
			l, r = r, l
		}
		joins = append(joins, l+"="+r)
	}
	sort.Strings(joins)
	write(joins...)
	write("G")
	for _, c := range q.GroupBy {
		write(c.String())
	}
	write("A")
	for _, a := range q.Aggs {
		write(a.String())
	}
	write("O")
	for _, c := range q.OrderBy {
		write(c.String())
	}
	if q.Desc {
		write("desc")
	}
	fmt.Fprintf(h, "L%d", q.Limit)
	return h.Sum64()
}
