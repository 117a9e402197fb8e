package tree

import (
	"testing"

	"repro/internal/race"
	"repro/internal/util"
)

// TestTreeFitAllocBudget pins the engine's steady-state allocation
// profile: fitting on a warm matrix and scratch pool allocates only what
// the model itself needs — the node structs and leaf payloads — with a
// small per-fit constant (tree, RNG). The seed's per-node sort.Slice
// closures and index slices are gone; this test keeps them gone. The
// feature-subsampled fit reads the Matrix's ranks, built once per Matrix,
// through pooled count and sort scratch, so it must hold the same budget.
func TestTreeFitAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	X, y, _ := refData(400, 8, 3, true)
	Xp, yp := refPairShapedData(400, 5)
	for _, tc := range []struct {
		name string
		X    [][]float64
		y    []int
		cfg  Config
		idx  []int
	}{
		{"full", X, y, Config{MinLeaf: 1, ImpurityThreshold: 1e-6}, nil},
		{"sampled", Xp, yp, Config{MinLeaf: 1, ImpurityThreshold: 1e-6, MaxFeatures: 4, Seed: 3}, refBootstrap(len(Xp), util.NewRNG(1))},
	} {
		m := AcquireMatrix(tc.X)
		fit := func() *Tree {
			tr := New(tc.cfg)
			if err := tr.FitClassifierMatrix(m, tc.y, 3, tc.idx); err != nil {
				t.Fatal(err)
			}
			return tr
		}
		warm := fit() // populate the scratch pool and the Matrix's indexes
		nodes := warm.nodes
		if nodes < 10 {
			t.Fatalf("%s: fixture grew a trivial tree (%d nodes)", tc.name, nodes)
		}
		allocs := testing.AllocsPerRun(20, func() { fit() })
		m.Release()
		// Every node costs one struct allocation, every leaf one payload
		// slice and, in the sampled fit, every split attempt one feature
		// permutation; 2×nodes covers them with headroom for the per-fit
		// constants.
		budget := float64(2*nodes + 16)
		if allocs > budget {
			t.Fatalf("%s: tree fit allocates %.0f per run on a warm pool; budget is %.0f (%d nodes)", tc.name, allocs, budget, nodes)
		}
	}
}
