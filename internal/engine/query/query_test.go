package query

import (
	"strings"
	"testing"

	"repro/internal/engine/catalog"
)

func testSchema() *catalog.Schema {
	s := catalog.NewSchema("db")
	s.AddTable(&catalog.Table{Name: "orders", Columns: []catalog.Column{
		{Name: "o_id"}, {Name: "o_custkey"}, {Name: "o_date"}, {Name: "o_total"},
	}})
	s.AddTable(&catalog.Table{Name: "customer", Columns: []catalog.Column{
		{Name: "c_id"}, {Name: "c_nation"},
	}})
	return s
}

func testQuery() *Query {
	return &Query{
		Name:   "q1",
		Tables: []string{"orders", "customer"},
		Preds: []Pred{
			{Table: "orders", Column: "o_date", Lo: 100, Hi: 200},
			{Table: "customer", Column: "c_nation", Lo: 5, Hi: 5},
		},
		Joins:   []Join{{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"}},
		GroupBy: []ColRef{{Table: "customer", Column: "c_nation"}},
		Aggs:    []Agg{{Func: Sum, Col: ColRef{Table: "orders", Column: "o_total"}}, {Func: Count}},
		OrderBy: []ColRef{{Table: "customer", Column: "c_nation"}},
		Weight:  1,
	}
}

func TestPred(t *testing.T) {
	eq := Pred{Table: "t", Column: "c", Lo: 5, Hi: 5}
	if !eq.IsEquality() || !eq.Matches(5) || eq.Matches(6) {
		t.Fatal("equality pred wrong")
	}
	if eq.String() != "t.c = 5" {
		t.Fatalf("eq string: %s", eq.String())
	}
	rg := Pred{Table: "t", Column: "c", Lo: 1, Hi: 9}
	if rg.IsEquality() || !rg.Matches(1) || !rg.Matches(9) || rg.Matches(0) {
		t.Fatal("range pred wrong")
	}
	if !strings.Contains(rg.String(), "BETWEEN") {
		t.Fatalf("range string: %s", rg.String())
	}
	le := Pred{Table: "t", Column: "c", Lo: NoLo, Hi: 7}
	if !strings.Contains(le.String(), "<=") {
		t.Fatalf("le string: %s", le.String())
	}
	ge := Pred{Table: "t", Column: "c", Lo: 7, Hi: NoHi}
	if !strings.Contains(ge.String(), ">=") {
		t.Fatalf("ge string: %s", ge.String())
	}
}

func TestJoinHelpers(t *testing.T) {
	j := Join{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "y"}
	if !j.Touches("a") || !j.Touches("b") || j.Touches("c") {
		t.Fatal("Touches wrong")
	}
	if j.ColumnFor("a") != "x" || j.ColumnFor("b") != "y" || j.ColumnFor("c") != "" {
		t.Fatal("ColumnFor wrong")
	}
	if j.String() != "a.x = b.y" {
		t.Fatalf("join string: %s", j.String())
	}
}

func TestQueryAccessors(t *testing.T) {
	q := testQuery()
	if len(q.PredsOn("orders")) != 1 || len(q.PredsOn("customer")) != 1 || len(q.PredsOn("x")) != 0 {
		t.Fatal("PredsOn wrong")
	}
	if len(q.JoinsOn("orders")) != 1 || len(q.JoinsOn("x")) != 0 {
		t.Fatal("JoinsOn wrong")
	}
	if !q.HasTable("orders") || q.HasTable("ghost") {
		t.Fatal("HasTable wrong")
	}
	cols := q.ColumnsUsed("orders")
	want := []string{"o_custkey", "o_date", "o_total"}
	if len(cols) != len(want) {
		t.Fatalf("ColumnsUsed: %v", cols)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("ColumnsUsed: %v", cols)
		}
	}
}

func TestValidateOK(t *testing.T) {
	if err := testQuery().Validate(testSchema()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	s := testSchema()
	cases := map[string]func(q *Query){
		"unknown table":  func(q *Query) { q.Tables = append(q.Tables, "ghost") },
		"unknown column": func(q *Query) { q.Preds[0].Column = "nope" },
		"unlisted table": func(q *Query) {
			q.Preds[0].Table = "customer"
			q.Preds[0].Column = "c_id"
			q.Tables = q.Tables[:1]
			q.Joins = nil
		},
		"empty range":      func(q *Query) { q.Preds[0].Lo, q.Preds[0].Hi = 10, 5 },
		"disconnected":     func(q *Query) { q.Joins = nil },
		"bad join column":  func(q *Query) { q.Joins[0].RightColumn = "ghost" },
		"bad group column": func(q *Query) { q.GroupBy[0].Column = "ghost" },
		"bad agg column":   func(q *Query) { q.Aggs[0].Col.Column = "ghost" },
		"bad order column": func(q *Query) { q.OrderBy[0].Column = "ghost" },
	}
	for name, mutate := range cases {
		q := testQuery()
		mutate(q)
		if err := q.Validate(s); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	empty := &Query{Name: "e", Tables: []string{"orders"}}
	if err := empty.Validate(s); err == nil {
		t.Fatal("no-output query should fail validation")
	}
	none := &Query{Name: "n"}
	if err := none.Validate(s); err == nil {
		t.Fatal("no-table query should fail validation")
	}
}

func TestSQLRendering(t *testing.T) {
	q := testQuery()
	q.Limit = 10
	sql := q.SQL()
	for _, frag := range []string{
		"SELECT", "SUM(orders.o_total)", "COUNT(*)", "FROM orders, customer",
		"WHERE orders.o_custkey = customer.c_id", "BETWEEN 100 AND 200",
		"GROUP BY customer.c_nation", "ORDER BY customer.c_nation", "LIMIT 10",
	} {
		if !strings.Contains(sql, frag) {
			t.Fatalf("SQL missing %q:\n%s", frag, sql)
		}
	}
	plain := &Query{Tables: []string{"orders"}, Select: []ColRef{{Table: "orders", Column: "o_id"}}}
	if !strings.Contains(plain.SQL(), "SELECT orders.o_id FROM orders") {
		t.Fatalf("plain SQL: %s", plain.SQL())
	}
}

func TestTemplateHash(t *testing.T) {
	q1 := testQuery()
	q2 := testQuery()
	// Different constants, same template.
	q2.Preds[0].Lo, q2.Preds[0].Hi = 300, 400
	q2.Preds[1].Lo, q2.Preds[1].Hi = 9, 9
	if q1.TemplateHash() != q2.TemplateHash() {
		t.Fatal("same template with different constants must share hash")
	}
	// Changing predicate shape (eq -> range) changes the hash.
	q3 := testQuery()
	q3.Preds[1].Hi = q3.Preds[1].Lo + 10
	if q1.TemplateHash() == q3.TemplateHash() {
		t.Fatal("different predicate shape must change hash")
	}
	// Different join changes the hash.
	q4 := testQuery()
	q4.Joins[0].LeftColumn = "o_id"
	if q1.TemplateHash() == q4.TemplateHash() {
		t.Fatal("different join must change hash")
	}
	// Join direction does not matter.
	q5 := testQuery()
	q5.Joins[0] = Join{LeftTable: "customer", LeftColumn: "c_id", RightTable: "orders", RightColumn: "o_custkey"}
	if q1.TemplateHash() != q5.TemplateHash() {
		t.Fatal("join direction must not change hash")
	}
	// Limit changes the hash.
	q6 := testQuery()
	q6.Limit = 5
	if q1.TemplateHash() == q6.TemplateHash() {
		t.Fatal("limit must change hash")
	}
}

func TestAggString(t *testing.T) {
	if (Agg{Func: Count}).String() != "COUNT(*)" {
		t.Fatal("count string")
	}
	a := Agg{Func: Avg, Col: ColRef{Table: "t", Column: "c"}}
	if a.String() != "AVG(t.c)" {
		t.Fatalf("agg string: %s", a.String())
	}
	for _, f := range []AggFunc{Count, Sum, Min, Max, Avg} {
		if f.String() == "" || strings.HasPrefix(f.String(), "AggFunc(") {
			t.Fatalf("missing name for %d", f)
		}
	}
}
