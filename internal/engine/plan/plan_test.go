package plan

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/engine/catalog"
	"repro/internal/engine/query"
)

func samplePlan() *Plan {
	scan := &Node{Op: TableScan, Table: "lineitem", EstRows: 1000, EstRowWidth: 8, EstCost: 10}
	seek := &Node{Op: IndexSeek, Table: "orders", IndexDef: &catalog.Index{Table: "orders", KeyColumns: []string{"o_id"}},
		Ann:     &Annotations{SeekPreds: []query.Pred{{Table: "orders", Column: "o_id", Lo: 1, Hi: 1}}},
		EstRows: 10, EstRowWidth: 8, EstCost: 1}
	join := &Node{Op: HashJoin, Kids: [2]*Node{scan, seek},
		Join:    &query.Join{LeftTable: "lineitem", LeftColumn: "l_oid", RightTable: "orders", RightColumn: "o_id"},
		EstRows: 100, EstRowWidth: 16, EstCost: 20}
	agg := &Node{Op: HashAggregate, Kids: [2]*Node{join}, EstRows: 5, EstRowWidth: 16, EstCost: 3,
		Ann: &Annotations{GroupCols: []query.ColRef{{Table: "orders", Column: "o_id"}}}}
	return &Plan{
		Root:         agg,
		Query:        &query.Query{Name: "q", Tables: []string{"lineitem", "orders"}},
		EstTotalCost: 34,
	}
}

func TestKeySpace(t *testing.T) {
	seen := map[int]bool{}
	for o := 0; o < NumOps; o++ {
		for m := 0; m < 2; m++ {
			for p := 0; p < 2; p++ {
				k := KeyIndex(Op(o), Mode(m), Parallelism(p))
				if k < 0 || k >= NumKeys {
					t.Fatalf("key out of range: %d", k)
				}
				if seen[k] {
					t.Fatalf("duplicate key index %d", k)
				}
				seen[k] = true
			}
		}
	}
	if len(seen) != NumKeys {
		t.Fatalf("key space not dense: %d != %d", len(seen), NumKeys)
	}
}

func TestKeyNames(t *testing.T) {
	n := &Node{Op: HashJoin, Mode: Batch, Par: Parallel}
	if n.KeyName() != "HashJoin_Batch_Parallel" {
		t.Fatalf("key name: %s", n.KeyName())
	}
	if KeyName(KeyIndex(IndexSeek, Row, Serial)) != "IndexSeek_Row_Serial" {
		t.Fatal("round trip failed")
	}
	// All ops have proper names.
	for o := 0; o < NumOps; o++ {
		if strings.HasPrefix(Op(o).String(), "Op(") {
			t.Fatalf("missing name for op %d", o)
		}
	}
}

func TestNodeHelpers(t *testing.T) {
	p := samplePlan()
	if p.Root.IsLeaf() {
		t.Fatal("root is not a leaf")
	}
	if !p.Root.Kids[0].Kids[0].IsLeaf() {
		t.Fatal("scan is a leaf")
	}
	join := p.Root.Kids[0]
	if join.EstBytesOut() != 1600 {
		t.Fatalf("EstBytesOut: %v", join.EstBytesOut())
	}
	var order []Op
	p.Root.Walk(func(n *Node) { order = append(order, n.Op) })
	want := []Op{HashAggregate, HashJoin, TableScan, IndexSeek}
	if len(order) != len(want) {
		t.Fatalf("walk visited %d nodes, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk order: %v", order)
		}
	}
}

// TestChildren checks that Children is the filled prefix of the two slots,
// in order, aliases them rather than copying, and allocates nothing.
func TestChildren(t *testing.T) {
	p := samplePlan()
	agg, join := p.Root, p.Root.Kids[0]
	scan, seek := join.Kids[0], join.Kids[1]
	if c := scan.Children(); c != nil {
		t.Fatalf("leaf children = %v, want nil", c)
	}
	if c := agg.Children(); len(c) != 1 || c[0] != join {
		t.Fatalf("unary children = %v, want [join]", c)
	}
	if c := join.Children(); len(c) != 2 || c[0] != scan || c[1] != seek {
		t.Fatalf("join children = %v, want [scan seek]", c)
	}
	join.Children()[1] = scan
	if join.Kids[1] != scan {
		t.Fatal("Children must alias the node's slots")
	}
	if n := testing.AllocsPerRun(100, func() { _ = join.Children() }); n != 0 {
		t.Fatalf("Children allocates %v times, want 0", n)
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := samplePlan(), samplePlan()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical plans must share fingerprints")
	}
	// Estimates do not affect the fingerprint.
	b.Root.EstRows = 999999
	b.Root.EstCost = 1
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("estimates must not affect fingerprint")
	}
	// Structure does.
	c := samplePlan()
	c.Root.Kids[0].Op = MergeJoin
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different join algorithm must change fingerprint")
	}
	// Index choice does.
	d := samplePlan()
	d.Root.Kids[0].Kids[1].IndexDef = &catalog.Index{Table: "orders", KeyColumns: []string{"o_date"}}
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("different index must change fingerprint")
	}
	// Predicate constants do (different parameterizations are distinct plans).
	e := samplePlan()
	e.Root.Kids[0].Kids[1].Ann.SeekPreds[0].Lo = 2
	e.Root.Kids[0].Kids[1].Ann.SeekPreds[0].Hi = 2
	if a.Fingerprint() == e.Fingerprint() {
		t.Fatal("different constants must change fingerprint")
	}
	// Child order does (join sides are not symmetric).
	f := samplePlan()
	j := f.Root.Kids[0]
	j.Kids[0], j.Kids[1] = j.Kids[1], j.Kids[0]
	if a.Fingerprint() == f.Fingerprint() {
		t.Fatal("swapped children must change fingerprint")
	}
}

func TestPlanString(t *testing.T) {
	p := samplePlan()
	s := p.String()
	for _, frag := range []string{
		"HashAggregate_Row_Serial", "HashJoin_Row_Serial", "TableScan_Row_Serial",
		"IndexSeek_Row_Serial", "table=orders", "index=orders/bt(o_id)",
		"seek(orders.o_id = 1)", "estRows=10.0",
	} {
		if !strings.Contains(s, frag) {
			t.Fatalf("plan string missing %q:\n%s", frag, s)
		}
	}
}

// TestNodeLayout pins the node's size on 64-bit platforms, where the what-if
// cache holds tens of thousands of nodes per tuning job, and the accessors
// of a node without an annotation block.
func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Node{}); got != 120 {
			t.Fatalf("plan.Node is %d bytes, want 120", got)
		}
		if got := unsafe.Sizeof(Annotations{}); got != 104 {
			t.Fatalf("plan.Annotations is %d bytes, want 104", got)
		}
	}
	n := &Node{Op: TableScan, Table: "lineitem"}
	if n.Index() != "" || n.SeekPreds() != nil || n.ExtraJoins() != nil || n.SortCols() != nil || n.GroupCols() != nil || n.TopN() != 0 {
		t.Fatal("a node without an index or annotation block must read as carrying none")
	}
	if !(&Annotations{}).Empty() || (&Annotations{TopN: 1}).Empty() {
		t.Fatal("Empty must hold exactly for a block that carries nothing")
	}
	seek := samplePlan().Root.Kids[0].Kids[1]
	if seek.Index() != "orders/bt(o_id)" || seek.Index() != seek.IndexDef.ID() {
		t.Fatalf("Index() = %q, want the definition's id", seek.Index())
	}
}

func TestModeParallelismStrings(t *testing.T) {
	if Row.String() != "Row" || Batch.String() != "Batch" {
		t.Fatal("mode strings")
	}
	if Serial.String() != "Serial" || Parallel.String() != "Parallel" {
		t.Fatal("parallelism strings")
	}
}
