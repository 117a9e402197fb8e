package forest

// Frozen reference orchestration: the seed's strictly-serial forest
// training loop, preserved verbatim (bootstrap draws, per-tree seed
// derivation, tree config mapping). The individual tree fits are pinned
// bit-exact by tree/ref_train_test.go; this file pins everything the
// forest adds on top, and that parallel training at any worker count
// produces byte-identical serialized models.

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"repro/internal/ml/tree"
	"repro/internal/util"
)

// --- frozen seed orchestration (do not modify) ---

func refForestFitClassifier(cfg Config, X [][]float64, y []int, numClasses int) (*Classifier, error) {
	f := &Classifier{cfg: cfg.withDefaults(), numClasses: numClasses}
	d := len(X[0])
	maxFeat := f.cfg.MaxFeatures
	if maxFeat == 0 {
		maxFeat = int(math.Ceil(math.Sqrt(float64(d))))
	}
	f.trees = make([]*tree.Tree, f.cfg.Trees)
	rng := util.NewRNG(f.cfg.Seed)
	seeds := make([]int64, f.cfg.Trees)
	for i := range seeds {
		seeds[i] = rng.SplitInt(i).Seed()
	}
	for i := 0; i < f.cfg.Trees; i++ {
		trng := util.NewRNG(seeds[i])
		idx := bootstrap(len(X), trng)
		t := tree.New(tree.Config{
			MaxDepth:          f.cfg.MaxDepth,
			MinLeaf:           f.cfg.MinLeaf,
			ImpurityThreshold: f.cfg.ImpurityThreshold,
			MaxFeatures:       maxFeat,
			Seed:              seeds[i] ^ 0x5f5f,
		})
		if err := t.FitClassifier(X, y, numClasses, idx); err != nil {
			return nil, err
		}
		f.trees[i] = t
	}
	return f, nil
}

func refForestFitRegressor(cfg Config, X [][]float64, y []float64) (*Regressor, error) {
	f := &Regressor{cfg: cfg.withDefaults()}
	d := len(X[0])
	maxFeat := f.cfg.MaxFeatures
	if maxFeat == 0 {
		maxFeat = d/3 + 1
	}
	f.trees = make([]*tree.Tree, f.cfg.Trees)
	rng := util.NewRNG(f.cfg.Seed)
	seeds := make([]int64, f.cfg.Trees)
	for i := range seeds {
		seeds[i] = rng.SplitInt(i).Seed()
	}
	for i := 0; i < f.cfg.Trees; i++ {
		trng := util.NewRNG(seeds[i])
		idx := bootstrap(len(X), trng)
		t := tree.New(tree.Config{
			MaxDepth:          f.cfg.MaxDepth,
			MinLeaf:           f.cfg.MinLeaf,
			ImpurityThreshold: f.cfg.ImpurityThreshold,
			MaxFeatures:       maxFeat,
			Seed:              seeds[i] ^ 0x6f6f,
		})
		if err := t.FitRegressor(X, y, idx); err != nil {
			return nil, err
		}
		f.trees[i] = t
	}
	return f, nil
}

// --- fixtures ---

func refForestData(n, d int, seed int64) ([][]float64, []int, []float64) {
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	yf := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			if j%2 == 0 {
				row[j] = float64(rng.Intn(5)) // tie-heavy
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		X[i] = row
		s := row[0] - 0.6*row[1] + 0.2*rng.NormFloat64()
		switch {
		case s < 0:
			y[i] = 0
		case s < 1.5:
			y[i] = 1
		default:
			y[i] = 2
		}
		yf[i] = s
	}
	return X, y, yf
}

// forestBlob gob-encodes f's dump: equal blobs mean equal models.
// refPairShapedForestData is shaped like featurized plan pairs: constant
// columns (one mixing −0 and +0), a column holding −0 and +0 beside other
// values, tie-heavy columns, and a continuous column with more distinct
// values than twice a deep node's samples.
func refPairShapedForestData(n int, seed int64) ([][]float64, []int) {
	rng := util.NewRNG(seed)
	negZero := math.Copysign(0, -1)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		zero := 0.0
		if rng.Intn(2) == 0 {
			zero = negZero
		}
		signed := []float64{zero, zero, -1.5, 2}[rng.Intn(4)]
		cont := rng.NormFloat64()
		tie := float64(rng.Intn(3))
		X[i] = []float64{0, signed, tie, cont, zero, float64(rng.Intn(2)), 7, float64(rng.Intn(5))}
		s := 0.8*cont + 0.5*tie + signed/2 + 0.3*rng.NormFloat64()
		switch {
		case s < 0:
			y[i] = 0
		case s < 1.2:
			y[i] = 1
		default:
			y[i] = 2
		}
	}
	return X, y
}

func forestBlob(t *testing.T, f *Classifier) []byte {
	t.Helper()
	d, err := f.EncodeDump()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// --- pinning tests ---

// TestRefForestClassifierBitExactAcrossWorkers trains the same forest
// serially (frozen reference) and at several worker counts, requiring
// byte-identical serialized models — the promotion-blob determinism the
// learn loop's gates rely on.
func TestRefForestClassifierBitExactAcrossWorkers(t *testing.T) {
	X, y, _ := refForestData(160, 9, 21)
	Xp, yp := refPairShapedForestData(200, 13)
	for _, data := range []struct {
		name string
		X    [][]float64
		y    []int
	}{{"mixed", X, y}, {"pair-shaped", Xp, yp}} {
		cfg := Config{Trees: 24, MinLeaf: 1, ImpurityThreshold: 1e-6, Seed: 7}
		ref, err := refForestFitClassifier(cfg, data.X, data.y, 3)
		if err != nil {
			t.Fatal(err)
		}
		refBlob := forestBlob(t, ref)
		for _, workers := range []int{1, 2, 8} {
			wcfg := cfg
			wcfg.Workers = workers
			live := NewClassifier(wcfg)
			if err := live.Fit(data.X, data.y, 3); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live.trees, ref.trees) {
				t.Fatalf("%s, workers=%d: trees diverged from the frozen serial reference", data.name, workers)
			}
			if got := forestBlob(t, live); !bytes.Equal(got, refBlob) {
				t.Fatalf("%s, workers=%d: serialized model differs from the reference (%d vs %d bytes)", data.name, workers, len(got), len(refBlob))
			}
		}
	}
}

// TestRefForestRegressorBitExactAcrossWorkers is the regression-side pin.
func TestRefForestRegressorBitExactAcrossWorkers(t *testing.T) {
	X, _, yf := refForestData(160, 9, 33)
	cfg := Config{Trees: 16, MinLeaf: 2, ImpurityThreshold: 1e-6, Seed: 5}
	ref, err := refForestFitRegressor(cfg, X, yf)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		live := NewRegressor(wcfg)
		if err := live.Fit(X, yf); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.trees, ref.trees) {
			t.Fatalf("workers=%d: regressor trees diverged from the frozen serial reference", workers)
		}
	}
}

// TestRefForestConfigVariants pins seed derivation and default maxFeat
// mapping across config corners (explicit MaxFeatures, depth/leaf knobs).
func TestRefForestConfigVariants(t *testing.T) {
	X, y, _ := refForestData(120, 6, 55)
	for ci, cfg := range []Config{
		{Trees: 8, Seed: 1},
		{Trees: 8, MaxDepth: 3, Seed: 2},
		{Trees: 8, MaxFeatures: 5, MinLeaf: 4, Seed: 3},
	} {
		ref, err := refForestFitClassifier(cfg, X, y, 3)
		if err != nil {
			t.Fatal(err)
		}
		live := NewClassifier(cfg)
		if err := live.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(forestBlob(t, live), forestBlob(t, ref)) {
			t.Fatalf("cfg%d: serialized model differs from the frozen reference", ci)
		}
	}
}

// TestForestDumpOmitsWorkers pins that Workers never reaches the blob:
// models trained at different parallelism must stay byte-comparable.
func TestForestDumpOmitsWorkers(t *testing.T) {
	X, y, _ := refForestData(80, 5, 9)
	f := NewClassifier(Config{Trees: 4, Seed: 1, Workers: 7})
	if err := f.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	d, err := f.EncodeDump()
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Workers != 0 {
		t.Fatalf("dump carries Workers=%d; execution knobs must not shape the model artifact", d.Config.Workers)
	}
}
