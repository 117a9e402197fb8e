package feat

import (
	"math"
	"testing"

	"repro/internal/engine/plan"
	"repro/internal/engine/query"
)

// twoJoinPlan builds: Agg(HashJoin(Scan(a), Seek(b))).
func twoJoinPlan(scanRows, seekRows float64) *plan.Plan {
	scan := &plan.Node{Op: plan.TableScan, Table: "a", EstRows: scanRows, EstRowWidth: 8, EstCost: scanRows, EstBytesProcessed: scanRows * 8}
	seek := &plan.Node{Op: plan.IndexSeek, Table: "b", EstRows: seekRows, EstRowWidth: 8, EstCost: seekRows / 10, EstBytesProcessed: seekRows * 8}
	join := &plan.Node{Op: plan.HashJoin, Kids: [2]*plan.Node{scan, seek}, EstRows: scanRows / 2, EstRowWidth: 16, EstCost: scanRows / 4, EstBytesProcessed: (scanRows + seekRows) * 8}
	agg := &plan.Node{Op: plan.HashAggregate, Kids: [2]*plan.Node{join}, EstRows: 10, EstRowWidth: 16, EstCost: 5, EstBytesProcessed: scanRows * 8}
	return &plan.Plan{Root: agg, Query: &query.Query{Name: "q"}, EstTotalCost: scanRows + seekRows/10 + scanRows/4 + 5}
}

func TestPlanVectorSumsByKey(t *testing.T) {
	p := twoJoinPlan(1000, 100)
	v := PlanVector(p, EstNodeCost)
	if got := v[plan.KeyIndex(plan.TableScan, plan.Row, plan.Serial)]; got != 1000 {
		t.Fatalf("scan weight: %v", got)
	}
	if got := v[plan.KeyIndex(plan.IndexSeek, plan.Row, plan.Serial)]; got != 10 {
		t.Fatalf("seek weight: %v", got)
	}
	// Two operators with the same key sum.
	p2 := twoJoinPlan(1000, 100)
	p2.Root.Kids[0].Kids[1] = &plan.Node{Op: plan.TableScan, Table: "b", EstRows: 50, EstCost: 70}
	v2 := PlanVector(p2, EstNodeCost)
	if got := v2[plan.KeyIndex(plan.TableScan, plan.Row, plan.Serial)]; got != 1070 {
		t.Fatalf("same-key sum: %v", got)
	}
	// Absent keys are zero.
	if v[plan.KeyIndex(plan.MergeJoin, plan.Row, plan.Serial)] != 0 {
		t.Fatal("absent operator must be zero")
	}
}

func TestChannelsDiffer(t *testing.T) {
	p := twoJoinPlan(1000, 100)
	seen := map[string]bool{}
	for c := Channel(0); c < Channel(NumChannels); c++ {
		v := PlanVector(p, c)
		sig := ""
		for _, x := range v {
			sig += "|"
			sig += string(rune(int('a') + int(math.Mod(x, 26))))
		}
		if seen[sig] {
			t.Logf("channel %v looks identical to an earlier channel (possible but suspicious)", c)
		}
		seen[sig] = true
		var sum float64
		for _, x := range v {
			sum += x
		}
		if sum == 0 {
			t.Fatalf("channel %v produced an all-zero vector", c)
		}
	}
}

func TestLeafWeightedEncodesStructure(t *testing.T) {
	// Same operator multiset, different shape: join(join(a,b),c) vs
	// join(a,join(b,c)) must produce different LeafWeight vectors.
	leaf := func(table string, rows float64) *plan.Node {
		return &plan.Node{Op: plan.TableScan, Table: table, EstRows: rows, EstRowWidth: 8}
	}
	join := func(l, r *plan.Node) *plan.Node {
		return &plan.Node{Op: plan.HashJoin, Kids: [2]*plan.Node{l, r}, EstRows: 10, EstRowWidth: 16}
	}
	left := &plan.Plan{Root: join(join(leaf("a", 100), leaf("b", 200)), leaf("c", 300)), Query: &query.Query{}}
	right := &plan.Plan{Root: join(leaf("a", 100), join(leaf("b", 200), leaf("c", 300))), Query: &query.Query{}}
	vl := PlanVector(left, LeafWeightEstRowsWeightedSum)
	vr := PlanVector(right, LeafWeightEstRowsWeightedSum)
	same := true
	for i := range vl {
		if vl[i] != vr[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different join shapes must produce different structural vectors")
	}
	// The flat EstRows channel cannot distinguish them (same multiset).
	fl := PlanVector(left, EstRows)
	fr := PlanVector(right, EstRows)
	for i := range fl {
		if fl[i] != fr[i] {
			t.Fatal("flat channel should NOT distinguish these shapes (sanity)")
		}
	}
}

func TestPairTransforms(t *testing.T) {
	p1 := twoJoinPlan(1000, 100)
	p2 := twoJoinPlan(500, 100)
	for tr := PairTransform(0); tr < PairTransform(NumTransforms); tr++ {
		f := &Featurizer{Channels: DefaultChannels(), Transform: tr, IncludeTotalCost: true}
		v := f.Pair(p1, p2)
		if len(v) != f.PairDim() {
			t.Fatalf("%v: dim %d != declared %d", tr, len(v), f.PairDim())
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%v: attribute %d is %v", tr, i, x)
			}
		}
	}
}

func TestPairDiffIsAntisymmetricish(t *testing.T) {
	p1 := twoJoinPlan(1000, 100)
	p2 := twoJoinPlan(500, 300)
	f := &Featurizer{Channels: []Channel{EstNodeCost}, Transform: PairDiff}
	a := f.Pair(p1, p2)
	b := f.Pair(p2, p1)
	for i := range a {
		if a[i] != -b[i] {
			t.Fatalf("pair_diff should be antisymmetric at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPairSamePlanIsZeroDiff(t *testing.T) {
	p := twoJoinPlan(1000, 100)
	f := &Featurizer{Channels: DefaultChannels(), Transform: PairDiffNormalized}
	v := f.Pair(p, p)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("identical plans must diff to zero, attr %d = %v", i, x)
		}
	}
}

func TestPairDiffRatioClipping(t *testing.T) {
	p1 := twoJoinPlan(1000, 100)
	p2 := twoJoinPlan(1000, 100)
	// Give p2 an operator whose key is zero in p1 -> division by zero.
	p2.Root.Kids[0].Op = plan.MergeJoin
	f := &Featurizer{Channels: []Channel{EstNodeCost}, Transform: PairDiffRatio}
	v := f.Pair(p1, p2)
	clipped := false
	for _, x := range v {
		if x == 1e4 || x == -1e4 {
			clipped = true
		}
		if math.Abs(x) > 1e4 {
			t.Fatalf("ratio attribute exceeds clip: %v", x)
		}
	}
	if !clipped {
		t.Fatal("expected at least one clipped attribute")
	}
}

func TestConcatKeepsBothPlans(t *testing.T) {
	p1 := twoJoinPlan(1000, 100)
	p2 := twoJoinPlan(500, 100)
	f := &Featurizer{Channels: []Channel{EstNodeCost}, Transform: Concat}
	v := f.Pair(p1, p2)
	if len(v) != 2*plan.NumKeys {
		t.Fatalf("concat dim: %d", len(v))
	}
	k := plan.KeyIndex(plan.TableScan, plan.Row, plan.Serial)
	if v[k] != 1000 || v[plan.NumKeys+k] != 500 {
		t.Fatal("concat halves wrong")
	}
}

func TestKeyGroups(t *testing.T) {
	f := Default()
	g := f.KeyGroups()
	if len(g) != f.PairDim() {
		t.Fatalf("key groups len %d != dim %d", len(g), f.PairDim())
	}
	if g[len(g)-1] != -1 || g[len(g)-2] != -1 {
		t.Fatal("total-cost features must be ungrouped")
	}
	if g[0] != 0 || g[1] != 1 {
		t.Fatal("groups must follow key order within a channel")
	}
	// Concat doubles the group list.
	fc := &Featurizer{Channels: []Channel{EstNodeCost}, Transform: Concat}
	if len(fc.KeyGroups()) != 2*plan.NumKeys {
		t.Fatal("concat group length wrong")
	}
}

func TestPlanFeaturesForRegressor(t *testing.T) {
	f := Default()
	p := twoJoinPlan(1000, 100)
	v := f.Plan(p)
	if len(v) != f.PlanDim() {
		t.Fatalf("plan dim %d != %d", len(v), f.PlanDim())
	}
	if v[len(v)-1] != p.EstTotalCost {
		t.Fatal("last plan feature must be the total cost")
	}
}

// TestPairFromVectorsEdgeCases drives the ratio transforms through raw
// vectors containing zeros, negatives, and ±Inf (the telemetry path accepts
// arbitrary shipped vectors, so nothing guarantees well-formed plan sums).
// Contract: attributes clip symmetrically at ±1e4, a 0-over-0 attribute is
// 0 (not a clip), and no attribute is ever NaN. The NaN rows fail on the
// pre-fix SafeDiv.
func TestPairFromVectorsEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	const clip = 1e4
	for _, tr := range []PairTransform{PairDiffRatio, PairDiffNormalized} {
		f := &Featurizer{Channels: []Channel{EstNodeCost}, Transform: tr}
		cases := []struct {
			name   string
			v1, v2 []float64
		}{
			{"both zero", []float64{0, 0, 0}, []float64{0, 0, 0}},
			{"zero denom", []float64{0, 0, 0}, []float64{5, -5, 0}},
			{"negatives", []float64{-2, 4, -8}, []float64{2, -4, 8}},
			{"huge ratio", []float64{1e-12, 1, 0}, []float64{1e12, 1, -1e12}},
			{"pos inf", []float64{inf, 1, 0}, []float64{0, inf, inf}},
			{"neg inf", []float64{-inf, inf, 1}, []float64{inf, -inf, -inf}},
		}
		for _, c := range cases {
			out := f.PairFromVectors([][]float64{c.v1}, [][]float64{c.v2}, 0, 0)
			for i, v := range out {
				if math.IsNaN(v) {
					t.Errorf("%s/%s: attribute %d is NaN", tr, c.name, i)
				}
				if v < -clip || v > clip {
					t.Errorf("%s/%s: attribute %d = %v outside ±%v", tr, c.name, i, v, clip)
				}
			}
		}
		// 0/0 attributes must read 0, not a clip value.
		out := f.PairFromVectors([][]float64{{0, 1}}, [][]float64{{0, 2}}, 0, 0)
		if out[0] != 0 {
			t.Errorf("%s: 0-over-0 attribute = %v, want 0", tr, out[0])
		}
		// Symmetric clipping: swapping the plans flips the clipped sign.
		hi := f.PairFromVectors([][]float64{{1e-12}}, [][]float64{{1}}, 0, 0)
		lo := f.PairFromVectors([][]float64{{1}}, [][]float64{{1e-12}}, 0, 0)
		if hi[0] != clip {
			t.Errorf("%s: blow-up ratio = %v, want %v", tr, hi[0], clip)
		}
		if tr == PairDiffRatio && lo[0] != -1+1e-12 {
			// -1+eps: (v2-v1)/v1 with v2 ~ 0 is bounded, no clip expected.
			t.Errorf("%s: shrink ratio = %v, want ~-1", tr, lo[0])
		}
	}
}
