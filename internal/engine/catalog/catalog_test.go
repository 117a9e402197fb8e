package catalog

import (
	"strings"
	"testing"
)

func testTable() *Table {
	return &Table{
		Name: "orders",
		Columns: []Column{
			{Name: "o_id", Type: TypeInt},
			{Name: "o_custkey", Type: TypeInt},
			{Name: "o_date", Type: TypeDate},
			{Name: "o_comment", Type: TypeString},
			{Name: "o_total", Type: TypeFloat},
		},
		Rows: 1000,
	}
}

func TestTableLookups(t *testing.T) {
	tb := testTable()
	if tb.ColumnIndex("o_date") != 2 {
		t.Fatal("ColumnIndex wrong")
	}
	if tb.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
	if c := tb.Column("o_total"); c == nil || c.Type != TypeFloat {
		t.Fatal("Column lookup wrong")
	}
	if tb.Column("nope") != nil {
		t.Fatal("missing Column should be nil")
	}
	want := int64(8 + 8 + 4 + 24 + 8)
	if tb.RowWidth() != want {
		t.Fatalf("RowWidth = %d, want %d", tb.RowWidth(), want)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema("db1")
	s.AddTable(testTable())
	s.AddTable(&Table{Name: "lineitem", Rows: 5000, Columns: []Column{{Name: "l_id", Type: TypeInt}}})
	if s.NumTables() != 2 {
		t.Fatal("NumTables wrong")
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "orders" || names[1] != "lineitem" {
		t.Fatalf("TableNames order wrong: %v", names)
	}
	if s.Table("orders") == nil || s.Table("ghost") != nil {
		t.Fatal("Table lookup wrong")
	}
	if s.TotalBytes() != testTable().RowWidth()*1000+8*5000 {
		t.Fatalf("TotalBytes wrong: %d", s.TotalBytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddTable should panic")
		}
	}()
	s.AddTable(testTable())
}

func TestIndexID(t *testing.T) {
	a := &Index{Table: "orders", KeyColumns: []string{"o_custkey", "o_date"}}
	b := &Index{Table: "orders", KeyColumns: []string{"o_date", "o_custkey"}}
	if a.ID() == b.ID() {
		t.Fatal("key order must matter in index identity")
	}
	c := &Index{Table: "orders", KeyColumns: []string{"o_custkey"}, IncludedColumns: []string{"o_total", "o_date"}}
	d := &Index{Table: "orders", KeyColumns: []string{"o_custkey"}, IncludedColumns: []string{"o_date", "o_total"}}
	if c.ID() != d.ID() {
		t.Fatal("included column order must not matter in index identity")
	}
	cs := &Index{Table: "orders", Kind: Columnstore}
	if !strings.Contains(cs.ID(), "/cs") {
		t.Fatalf("columnstore id: %s", cs.ID())
	}
}

func TestIndexCovers(t *testing.T) {
	ix := &Index{Table: "orders", KeyColumns: []string{"o_custkey"}, IncludedColumns: []string{"o_total"}}
	if !ix.Covers("o_custkey") || !ix.Covers("o_total") || ix.Covers("o_date") {
		t.Fatal("Covers wrong")
	}
	if !ix.CoversAll([]string{"o_custkey", "o_total"}) || ix.CoversAll([]string{"o_custkey", "o_date"}) {
		t.Fatal("CoversAll wrong")
	}
	cs := &Index{Table: "orders", Kind: Columnstore}
	if !cs.CoversAll([]string{"o_id", "o_comment", "anything"}) {
		t.Fatal("columnstore covers everything")
	}
}

func TestIndexEstimatedBytes(t *testing.T) {
	tb := testTable()
	bt := &Index{Table: "orders", KeyColumns: []string{"o_custkey"}}
	if got := bt.EstimatedBytes(tb); got <= 0 {
		t.Fatalf("btree size: %d", got)
	}
	wide := &Index{Table: "orders", KeyColumns: []string{"o_custkey"}, IncludedColumns: []string{"o_comment"}}
	if wide.EstimatedBytes(tb) <= bt.EstimatedBytes(tb) {
		t.Fatal("wider index must be larger")
	}
	cs := &Index{Table: "orders", Kind: Columnstore}
	if cs.EstimatedBytes(tb) >= tb.RowWidth()*tb.Rows {
		t.Fatal("columnstore should be compressed below heap size")
	}
	if bt.EstimatedBytes(nil) != 0 {
		t.Fatal("nil table should size to 0")
	}
}

func TestConfiguration(t *testing.T) {
	a := &Index{Table: "orders", KeyColumns: []string{"o_custkey"}}
	b := &Index{Table: "orders", KeyColumns: []string{"o_date"}}
	c := &Index{Table: "lineitem", KeyColumns: []string{"l_id"}}
	cfg := NewConfiguration(a, b)
	if cfg.Len() != 2 || !cfg.Has(a) || cfg.Has(c) {
		t.Fatal("construction wrong")
	}
	cfg.Add(a) // idempotent
	if cfg.Len() != 2 {
		t.Fatal("Add should be idempotent")
	}
	clone := cfg.Clone()
	clone.Add(c)
	if cfg.Has(c) {
		t.Fatal("Clone must not share the map")
	}
	if len(cfg.IndexesOn("orders")) != 2 || len(cfg.IndexesOn("lineitem")) != 0 {
		t.Fatal("IndexesOn wrong")
	}
}

func TestConfigurationFingerprintAndDiff(t *testing.T) {
	a := &Index{Table: "t", KeyColumns: []string{"x"}}
	b := &Index{Table: "t", KeyColumns: []string{"y"}}
	c1 := NewConfiguration(a, b)
	c2 := NewConfiguration(b, a)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("fingerprint must be order-insensitive")
	}
	if NewConfiguration(a).Fingerprint() == c1.Fingerprint() {
		t.Fatal("different sets must differ")
	}
	d := c1.Diff(NewConfiguration(a))
	if len(d) != 1 || d[0].ID() != b.ID() {
		t.Fatalf("Diff wrong: %v", d)
	}
	if got := c1.Diff(nil); len(got) != 2 {
		t.Fatalf("Diff(nil) should return all: %d", len(got))
	}
	// FingerprintOf a subset is the fingerprint of a configuration holding
	// just that subset.
	u := &Index{Table: "u", KeyColumns: []string{"z"}}
	c3 := NewConfiguration(a, u, b)
	onT := func(ix *Index) bool { return ix.Table == "t" }
	if got := c3.FingerprintOf(onT); got != c1.Fingerprint() {
		t.Fatalf("FingerprintOf(t) = %q, want %q", got, c1.Fingerprint())
	}
	if got := c1.FingerprintOf(onT); got != c1.Fingerprint() {
		t.Fatalf("FingerprintOf(all) = %q, want %q", got, c1.Fingerprint())
	}
	if got := c3.FingerprintOf(func(*Index) bool { return false }); got != NewConfiguration().Fingerprint() {
		t.Fatalf("FingerprintOf(none) = %q, want the empty fingerprint", got)
	}
}

func TestColumnTypeString(t *testing.T) {
	for _, tt := range []struct {
		ty   ColumnType
		want string
	}{{TypeInt, "INT"}, {TypeFloat, "DECIMAL"}, {TypeString, "VARCHAR"}, {TypeDate, "DATE"}} {
		if tt.ty.String() != tt.want {
			t.Fatalf("%v != %s", tt.ty, tt.want)
		}
	}
	if IndexKind(0).String() != "BTREE" || Columnstore.String() != "COLUMNSTORE" {
		t.Fatal("IndexKind strings")
	}
}
