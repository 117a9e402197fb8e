package candidates

import (
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/query"
	"repro/internal/obs"
)

func schema() *catalog.Schema {
	s := catalog.NewSchema("db")
	s.AddTable(&catalog.Table{Name: "fact", Rows: 50000, Columns: []catalog.Column{
		{Name: "id"}, {Name: "fk"}, {Name: "a"}, {Name: "b"}, {Name: "v"},
	}})
	s.AddTable(&catalog.Table{Name: "dim", Rows: 500, Columns: []catalog.Column{
		{Name: "d_id"}, {Name: "d_cat"},
	}})
	return s
}

func ids(ixs []*catalog.Index) map[string]bool {
	out := map[string]bool{}
	for _, ix := range ixs {
		out[ix.ID()] = true
	}
	return out
}

func TestEqualityThenRangeKeyOrder(t *testing.T) {
	q := &query.Query{
		Name:   "q",
		Tables: []string{"fact"},
		Preds: []query.Pred{
			{Table: "fact", Column: "a", Lo: 0, Hi: 100}, // range
			{Table: "fact", Column: "b", Lo: 5, Hi: 5},   // equality
		},
		Select: []query.ColRef{{Table: "fact", Column: "v"}},
	}
	got := ids(CandidateIndexes(q, schema()))
	// The multi-column key must put the equality first, range second.
	if !got["fact/bt(b,a)"] {
		t.Fatalf("missing eq-then-range key; got %v", got)
	}
	// Covering variant includes the remaining used column.
	if !got["fact/bt(b,a)+(v)"] {
		t.Fatalf("missing covering variant; got %v", got)
	}
	// Per-column candidates.
	if !got["fact/bt(a)"] || !got["fact/bt(b)"] {
		t.Fatalf("missing single-column candidates; got %v", got)
	}
}

func TestJoinColumnCandidates(t *testing.T) {
	q := &query.Query{
		Name:   "q",
		Tables: []string{"fact", "dim"},
		Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "fk", RightTable: "dim", RightColumn: "d_id"}},
		Preds:  []query.Pred{{Table: "fact", Column: "b", Lo: 1, Hi: 1}},
		Select: []query.ColRef{{Table: "fact", Column: "v"}},
	}
	got := ids(CandidateIndexes(q, schema()))
	if !got["fact/bt(fk)"] {
		t.Fatalf("missing join-column candidate; got %v", got)
	}
	// Join column + equality predicate composite (index NLJ with filter).
	if !got["fact/bt(fk,b)"] {
		t.Fatalf("missing join+eq composite; got %v", got)
	}
}

func TestColumnstoreCandidateForAggregates(t *testing.T) {
	agg := &query.Query{
		Name:    "agg",
		Tables:  []string{"fact"},
		GroupBy: []query.ColRef{{Table: "fact", Column: "a"}},
		Aggs:    []query.Agg{{Func: query.Sum, Col: query.ColRef{Table: "fact", Column: "v"}}},
	}
	if !ids(CandidateIndexes(agg, schema()))["fact/cs"] {
		t.Fatal("aggregate query on a big table should get a columnstore candidate")
	}
	// Small tables do not.
	aggDim := &query.Query{
		Name:    "aggdim",
		Tables:  []string{"dim"},
		GroupBy: []query.ColRef{{Table: "dim", Column: "d_cat"}},
		Aggs:    []query.Agg{{Func: query.Count}},
	}
	if ids(CandidateIndexes(aggDim, schema()))["dim/cs"] {
		t.Fatal("500-row table should not get a columnstore candidate")
	}
}

func TestPerTableBudgetAndBigTablePriority(t *testing.T) {
	q := &query.Query{
		Name:   "wide",
		Tables: []string{"fact", "dim"},
		Preds: []query.Pred{
			{Table: "fact", Column: "a", Lo: 1, Hi: 1},
			{Table: "fact", Column: "b", Lo: 1, Hi: 9},
			{Table: "fact", Column: "v", Lo: 1, Hi: 9},
			{Table: "dim", Column: "d_cat", Lo: 1, Hi: 1},
		},
		Joins:   []query.Join{{LeftTable: "fact", LeftColumn: "fk", RightTable: "dim", RightColumn: "d_id"}},
		GroupBy: []query.ColRef{{Table: "dim", Column: "d_cat"}},
		Aggs:    []query.Agg{{Func: query.Count}},
	}
	lim := Limits{MaxPerTable: 3}
	cands := Generate(q, schema(), lim)
	perTable := map[string]int{}
	for _, ix := range cands {
		perTable[ix.Table]++
	}
	for table, n := range perTable {
		if n > lim.MaxPerTable {
			t.Fatalf("per-table budget exceeded on %s: %d > %d", table, n, lim.MaxPerTable)
		}
	}
	// Candidates on the 50k-row fact table must come first.
	if cands[0].Table != "fact" {
		t.Fatalf("big-table candidates should lead: %v", cands[0].ID())
	}
	// Composites are enumerated before fallback singles, so even a tight
	// budget keeps at least one multi-column key on the fact table.
	var composite bool
	for _, ix := range cands {
		if ix.Table == "fact" && len(ix.KeyColumns) >= 2 {
			composite = true
		}
	}
	if !composite {
		t.Fatalf("budgets should keep composites; got %v", ids(cands))
	}
}

// Regression (bug 1): a column carrying both an equality and a range
// predicate must not be emitted twice in one key. The seed generator built
// key = eqCols + rangeCols[0] without cross-list dedup, yielding bt(a,a).
func TestEqAndRangeOnSameColumnNotDuplicated(t *testing.T) {
	q := &query.Query{
		Name:   "dupkey",
		Tables: []string{"fact"},
		Preds: []query.Pred{
			{Table: "fact", Column: "a", Lo: 5, Hi: 5},          // a = 5
			{Table: "fact", Column: "a", Lo: query.NoLo, Hi: 9}, // a < 10
			{Table: "fact", Column: "b", Lo: 0, Hi: 100},        // range keeps rangeCols non-empty
		},
		Select: []query.ColRef{{Table: "fact", Column: "v"}},
	}
	cands := CandidateIndexes(q, schema())
	for _, ix := range cands {
		if err := ix.Validate(); err != nil {
			t.Fatalf("malformed candidate %s: %v", ix.ID(), err)
		}
	}
	got := ids(cands)
	if got["fact/bt(a,a)"] {
		t.Fatal("eq+range column duplicated in key")
	}
	if !got["fact/bt(a,b)"] {
		t.Fatalf("missing eq-then-range composite; got %v", got)
	}
}

// Regression (bug 2): a join column that also carries an equality predicate
// must not be duplicated in the join+equality composite. The seed generator
// built append([]string{joinCols[0]}, eqCols[0]), yielding bt(fk,fk).
func TestJoinColumnAlsoEqualityNotDuplicated(t *testing.T) {
	q := &query.Query{
		Name:   "jointeq",
		Tables: []string{"fact", "dim"},
		Joins:  []query.Join{{LeftTable: "fact", LeftColumn: "fk", RightTable: "dim", RightColumn: "d_id"}},
		Preds:  []query.Pred{{Table: "fact", Column: "fk", Lo: 7, Hi: 7}},
		Select: []query.ColRef{{Table: "fact", Column: "v"}},
	}
	cands := CandidateIndexes(q, schema())
	for _, ix := range cands {
		if err := ix.Validate(); err != nil {
			t.Fatalf("malformed candidate %s: %v", ix.ID(), err)
		}
	}
	got := ids(cands)
	if got["fact/bt(fk,fk)"] {
		t.Fatal("join column duplicated with its equality predicate")
	}
	if !got["fact/bt(fk)"] {
		t.Fatalf("missing join/equality single; got %v", got)
	}
}

func TestClassifyRoles(t *testing.T) {
	q := &query.Query{
		Name:   "roles",
		Tables: []string{"fact", "dim"},
		Preds: []query.Pred{
			{Table: "fact", Column: "a", Lo: 3, Hi: 3},  // EQ
			{Table: "fact", Column: "a", Lo: 0, Hi: 9},  // range on an EQ column: absorbed
			{Table: "fact", Column: "b", Lo: 0, Hi: 50}, // Range
		},
		Joins:   []query.Join{{LeftTable: "fact", LeftColumn: "fk", RightTable: "dim", RightColumn: "d_id"}},
		Select:  []query.ColRef{{Table: "fact", Column: "v"}},
		OrderBy: []query.ColRef{{Table: "fact", Column: "id"}},
	}
	r := Classify(q, "fact")
	check := func(name string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %v want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v want %v", name, got, want)
			}
		}
	}
	check("EQ", r.EQ, []string{"a"})
	check("Range", r.Range, []string{"b"})
	check("Join", r.Join, []string{"fk"})
	check("Order", r.Order, []string{"id"})
	check("Ref", r.Ref, []string{"v"})
}

func TestOrderByAndGroupByProduceCandidates(t *testing.T) {
	q := &query.Query{
		Name:    "ord",
		Tables:  []string{"fact"},
		Preds:   []query.Pred{{Table: "fact", Column: "a", Lo: 1, Hi: 1}},
		Select:  []query.ColRef{{Table: "fact", Column: "v"}},
		OrderBy: []query.ColRef{{Table: "fact", Column: "b"}},
	}
	got := ids(CandidateIndexes(q, schema()))
	// Equality then order column — the (eq..., sort) composite the seed
	// generator could never produce.
	if !got["fact/bt(a,b)"] {
		t.Fatalf("missing eq-then-order composite; got %v", got)
	}
	// Order-first key for a sort-driven scan.
	if !got["fact/bt(b)"] {
		t.Fatalf("missing order-first key; got %v", got)
	}
}

func TestDroppedCounterOnBudget(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	q := &query.Query{
		Name:   "rich",
		Tables: []string{"fact"},
		Preds: []query.Pred{
			{Table: "fact", Column: "a", Lo: 1, Hi: 1},
			{Table: "fact", Column: "b", Lo: 2, Hi: 2},
			{Table: "fact", Column: "v", Lo: 0, Hi: 9},
		},
		Select:  []query.ColRef{{Table: "fact", Column: "id"}},
		OrderBy: []query.ColRef{{Table: "fact", Column: "id"}},
	}
	before := mDropped.Value()
	full := Generate(q, schema(), Limits{MaxPerTable: 100})
	if got := mDropped.Value(); got != before {
		t.Fatalf("nothing should be dropped without budget pressure (dropped %d)", got-before)
	}
	capN := 2
	capped := Generate(q, schema(), Limits{MaxPerTable: capN})
	if len(capped) != capN {
		t.Fatalf("expected %d capped candidates, got %d", capN, len(capped))
	}
	want := int64(len(full) - capN)
	if got := mDropped.Value() - before; got != want {
		t.Fatalf("dropped counter: got %d want %d", got, want)
	}
}

func TestNoCandidatesForBareSelect(t *testing.T) {
	q := &query.Query{
		Name:   "bare",
		Tables: []string{"dim"},
		Select: []query.ColRef{{Table: "dim", Column: "d_cat"}},
	}
	if got := CandidateIndexes(q, schema()); len(got) != 0 {
		t.Fatalf("no predicates/joins/aggs should yield no candidates: %v", got)
	}
}

func TestUnknownTableSkipped(t *testing.T) {
	q := &query.Query{
		Name:   "ghost",
		Tables: []string{"ghost"},
		Preds:  []query.Pred{{Table: "ghost", Column: "x", Lo: 1, Hi: 1}},
	}
	if got := CandidateIndexes(q, schema()); len(got) != 0 {
		t.Fatalf("unknown table should be skipped: %v", got)
	}
}
