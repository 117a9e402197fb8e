package tree

// Frozen reference trainer: a verbatim copy of the per-node-sort CART
// induction this package shipped with, kept under test (same discipline as
// ref_exec_test.go / ref_opt_test.go). The live presorted-Matrix engine in
// fit.go must produce byte-identical trees — same structure, thresholds,
// leaf payloads, node counts, and serialized bytes — for every config,
// including bootstrap multisets and per-split feature subsampling.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/util"
)

// --- frozen seed implementation (do not modify) ---

type refSplitCtx struct {
	X   [][]float64
	y   []int
	yf  []float64
	k   int
	rng *util.RNG
	cfg Config
}

func refSeq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func refFitClassifier(cfg Config, X [][]float64, y []int, numClasses int, idx []int) *Tree {
	t := &Tree{cfg: cfg, numClasses: numClasses}
	if idx == nil {
		idx = refSeq(len(X))
	}
	ctx := &refSplitCtx{X: X, y: y, k: numClasses, rng: util.NewRNG(cfg.Seed), cfg: cfg}
	t.root = refGrow(t, ctx, idx, 0)
	return t
}

func refFitRegressor(cfg Config, X [][]float64, y []float64, idx []int) *Tree {
	t := &Tree{cfg: cfg}
	if idx == nil {
		idx = refSeq(len(X))
	}
	ctx := &refSplitCtx{X: X, yf: y, rng: util.NewRNG(cfg.Seed), cfg: cfg}
	t.root = refGrow(t, ctx, idx, 0)
	return t
}

func refLeaf(t *Tree, ctx *refSplitCtx, idx []int) *node {
	t.nodes++
	if ctx.k > 0 {
		proba := make([]float64, ctx.k)
		for _, i := range idx {
			proba[ctx.y[i]]++
		}
		for c := range proba {
			proba[c] /= float64(len(idx))
		}
		return &node{feature: -1, proba: proba}
	}
	var sum float64
	for _, i := range idx {
		sum += ctx.yf[i]
	}
	return &node{feature: -1, value: sum / float64(len(idx))}
}

func refImpurity(ctx *refSplitCtx, idx []int) float64 {
	n := float64(len(idx))
	if n == 0 {
		return 0
	}
	if ctx.k > 0 {
		counts := make([]float64, ctx.k)
		for _, i := range idx {
			counts[ctx.y[i]]++
		}
		g := 1.0
		for _, c := range counts {
			p := c / n
			g -= p * p
		}
		return g
	}
	var sum, sumsq float64
	for _, i := range idx {
		v := ctx.yf[i]
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	return sumsq/n - mean*mean
}

func refGrow(t *Tree, ctx *refSplitCtx, idx []int, depth int) *node {
	if len(idx) < 2*ctx.cfg.minLeaf() ||
		(ctx.cfg.MaxDepth > 0 && depth >= ctx.cfg.MaxDepth) ||
		refImpurity(ctx, idx) <= ctx.cfg.ImpurityThreshold {
		return refLeaf(t, ctx, idx)
	}
	feat, thresh, ok := refBestSplit(ctx, idx)
	if !ok {
		return refLeaf(t, ctx, idx)
	}
	var left, right []int
	for _, i := range idx {
		if ctx.X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < ctx.cfg.minLeaf() || len(right) < ctx.cfg.minLeaf() {
		return refLeaf(t, ctx, idx)
	}
	t.nodes++
	return &node{
		feature: feat,
		thresh:  thresh,
		left:    refGrow(t, ctx, left, depth+1),
		right:   refGrow(t, ctx, right, depth+1),
	}
}

type refFVPair struct {
	v float64
	i int
}

func refBestSplit(ctx *refSplitCtx, idx []int) (feat int, thresh float64, ok bool) {
	d := len(ctx.X[0])
	feats := refSeq(d)
	if ctx.cfg.MaxFeatures > 0 && ctx.cfg.MaxFeatures < d {
		feats = ctx.rng.SampleWithoutReplacement(d, ctx.cfg.MaxFeatures)
	}
	bestGain := 1e-12
	vals := make([]refFVPair, len(idx))
	for _, f := range feats {
		for p, i := range idx {
			vals[p] = refFVPair{v: ctx.X[i][f], i: i}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		if vals[0].v == vals[len(vals)-1].v {
			continue // constant feature
		}
		if ctx.k > 0 {
			if g, th, found := refBestGiniSplit(ctx, vals); found && g > bestGain {
				bestGain, feat, thresh, ok = g, f, th, true
			}
		} else {
			if g, th, found := refBestVarSplit(ctx, vals); found && g > bestGain {
				bestGain, feat, thresh, ok = g, f, th, true
			}
		}
	}
	return feat, thresh, ok
}

func refBestGiniSplit(ctx *refSplitCtx, vals []refFVPair) (gain, thresh float64, ok bool) {
	n := len(vals)
	total := make([]float64, ctx.k)
	for _, p := range vals {
		total[ctx.y[p.i]]++
	}
	parent := giniOf(total, float64(n))
	left := make([]float64, ctx.k)
	minLeaf := ctx.cfg.minLeaf()
	for p := 0; p < n-1; p++ {
		left[ctx.y[vals[p].i]]++
		if vals[p].v == vals[p+1].v {
			continue
		}
		nl := p + 1
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		right := make([]float64, ctx.k)
		for c := range right {
			right[c] = total[c] - left[c]
		}
		g := parent - (float64(nl)*giniOf(left, float64(nl))+float64(nr)*giniOf(right, float64(nr)))/float64(n)
		if g > gain {
			gain = g
			thresh = (vals[p].v + vals[p+1].v) / 2
			ok = true
		}
	}
	return gain, thresh, ok
}

func refBestVarSplit(ctx *refSplitCtx, vals []refFVPair) (gain, thresh float64, ok bool) {
	n := len(vals)
	var totSum, totSq float64
	for _, p := range vals {
		v := ctx.yf[p.i]
		totSum += v
		totSq += v * v
	}
	parent := totSq/float64(n) - (totSum/float64(n))*(totSum/float64(n))
	var lSum, lSq float64
	minLeaf := ctx.cfg.minLeaf()
	for p := 0; p < n-1; p++ {
		v := ctx.yf[vals[p].i]
		lSum += v
		lSq += v * v
		if vals[p].v == vals[p+1].v {
			continue
		}
		nl := float64(p + 1)
		nr := float64(n) - nl
		if int(nl) < minLeaf || int(nr) < minLeaf {
			continue
		}
		rSum, rSq := totSum-lSum, totSq-lSq
		lVar := lSq/nl - (lSum/nl)*(lSum/nl)
		rVar := rSq/nr - (rSum/nr)*(rSum/nr)
		g := parent - (nl*lVar+nr*rVar)/float64(n)
		if g > gain {
			gain = g
			thresh = (vals[p].v + vals[p+1].v) / 2
			ok = true
		}
	}
	return gain, thresh, ok
}

// --- fixtures ---

// refData generates n×d training data. tieHeavy draws feature values from
// a small discrete set so ties and repeated thresholds dominate — the case
// where sort order and boundary handling could drift.
func refData(n, d int, seed int64, tieHeavy bool) ([][]float64, []int, []float64) {
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	yf := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			if tieHeavy {
				row[j] = float64(rng.Intn(4))
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		X[i] = row
		s := row[0] + 0.7*row[d/2] + 0.3*rng.NormFloat64()
		switch {
		case s < -0.5:
			y[i] = 0
		case s < 0.8:
			y[i] = 1
		default:
			y[i] = 2
		}
		yf[i] = s
	}
	return X, y, yf
}

// refPairShapedData generates n×12 training data shaped like featurized
// plan pairs, for the sampled fits' rank-coded scans:
//   - four columns constant over every row, one of them mixing −0 and +0;
//   - a column holding both −0 and +0 beside other values, which the label
//     reads;
//   - tie-heavy columns of 2 to 5 values;
//   - a continuous column with a distinct value per row: nodes of fewer
//     than n/2 samples find its splits by sorting, larger ones by counting;
//   - a column of about 100 values.
func refPairShapedData(n int, seed int64) ([][]float64, []int) {
	rng := util.NewRNG(seed)
	negZero := math.Copysign(0, -1)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		zero := 0.0
		if rng.Intn(2) == 0 {
			zero = negZero
		}
		signed := []float64{zero, zero, zero, -1.5, 2, 0.25}[rng.Intn(6)]
		cont := rng.NormFloat64()
		tie := float64(rng.Intn(3))
		X[i] = []float64{
			0, 3.5, signed, tie, cont, zero,
			float64(rng.Intn(2)), 0.5 * float64(rng.Intn(5)), 1e9,
			float64(rng.Intn(4) - 2), math.Round(100*rng.Float64()) / 100, 0,
		}
		s := 0.8*cont + 0.5*tie + 0.3*rng.NormFloat64()
		switch {
		case signed < 0:
			s -= 1
		case signed > 0:
			s += 1
		}
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

// refBootstrap mirrors the forest's bootstrap: n draws with replacement.
func refBootstrap(n int, rng *util.RNG) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

func treeBlob(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr.Encode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireIdentical asserts live and ref are the same tree down to the byte.
func requireIdentical(t *testing.T, name string, live, ref *Tree) {
	t.Helper()
	if live.nodes != ref.nodes {
		t.Fatalf("%s: node count %d, ref %d", name, live.nodes, ref.nodes)
	}
	if !reflect.DeepEqual(live.root, ref.root) {
		t.Fatalf("%s: tree structure diverged from the frozen reference", name)
	}
	if lb, rb := treeBlob(t, live), treeBlob(t, ref); !bytes.Equal(lb, rb) {
		t.Fatalf("%s: serialized blobs differ (%d vs %d bytes)", name, len(lb), len(rb))
	}
}

var refConfigs = []Config{
	{},
	{MaxDepth: 4},
	{MinLeaf: 5},
	{ImpurityThreshold: 0.1},
	{MaxFeatures: 3, Seed: 99},
	{MaxDepth: 6, MinLeaf: 3, MaxFeatures: 5, Seed: 7},
}

// --- pinning tests ---

func TestRefTrainClassifierBitExact(t *testing.T) {
	for _, tieHeavy := range []bool{false, true} {
		X, y, _ := refData(240, 12, 31, tieHeavy)
		for ci, cfg := range refConfigs {
			name := fmt.Sprintf("tie=%v/cfg%d", tieHeavy, ci)
			live := New(cfg)
			if err := live.FitClassifier(X, y, 3, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireIdentical(t, name, live, refFitClassifier(cfg, X, y, 3, nil))
		}
	}
}

func TestRefTrainClassifierBootstrapBitExact(t *testing.T) {
	X, y, _ := refData(300, 10, 5, true)
	rng := util.NewRNG(77)
	for trial := 0; trial < 4; trial++ {
		idx := refBootstrap(len(X), rng)
		cfg := Config{MaxFeatures: 4, Seed: int64(trial) * 13}
		live := New(cfg)
		if err := live.FitClassifier(X, y, 3, idx); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("bootstrap%d", trial), live, refFitClassifier(cfg, X, y, 3, idx))
	}

	// Plan-pair-shaped data on one shared Matrix, as a forest fits it:
	// constant columns are skipped, −0 and +0 share a rank, tie-heavy
	// columns are counted, and the continuous column takes both the
	// counting and the sorting scan within one tree. On refData's integer
	// values a threshold taken from ranks would equal one taken from
	// values; here it would not.
	Xp, yp := refPairShapedData(300, 11)
	m := AcquireMatrix(Xp)
	defer m.Release()
	rng = util.NewRNG(19)
	for ci, cfg := range []Config{
		{MaxFeatures: 3, Seed: 1},
		{MaxFeatures: 4, ImpurityThreshold: 1e-6, Seed: 2},
		{MaxFeatures: 6, MinLeaf: 3, Seed: 3},
		{MaxFeatures: 5, MaxDepth: 5, ImpurityThreshold: 0.1, Seed: 4},
	} {
		idx := refBootstrap(len(Xp), rng)
		live := New(cfg)
		if err := live.FitClassifierMatrix(m, yp, 3, idx); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("pair-shaped/cfg%d", ci), live, refFitClassifier(cfg, Xp, yp, 3, idx))
	}
}

func TestRefTrainRegressorBitExact(t *testing.T) {
	for _, tieHeavy := range []bool{false, true} {
		X, _, yf := refData(240, 12, 47, tieHeavy)
		for ci, cfg := range refConfigs {
			name := fmt.Sprintf("tie=%v/cfg%d", tieHeavy, ci)
			live := New(cfg)
			if err := live.FitRegressor(X, yf, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireIdentical(t, name, live, refFitRegressor(cfg, X, yf, nil))
		}
	}
}

func TestRefTrainRegressorBootstrapBitExact(t *testing.T) {
	X, _, yf := refData(300, 8, 9, false)
	rng := util.NewRNG(123)
	for trial := 0; trial < 4; trial++ {
		idx := refBootstrap(len(X), rng)
		cfg := Config{MinLeaf: 2, MaxFeatures: 3, Seed: int64(trial)*7 + 1}
		live := New(cfg)
		if err := live.FitRegressor(X, yf, idx); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("bootstrap%d", trial), live, refFitRegressor(cfg, X, yf, idx))
	}
}

// TestRefTrainParallelScanBitExact pins the parallel per-split feature
// scan to the serial result on a wide matrix (above the engine's
// minParallelFeats/minParallelRows gates).
func TestRefTrainParallelScanBitExact(t *testing.T) {
	X, y, yf := refData(minParallelRows+200, 24, 63, false)
	for _, par := range []int{2, 4, 8} {
		cfg := Config{MaxDepth: 6, Parallelism: par}
		live := New(cfg)
		if err := live.FitClassifier(X, y, 3, nil); err != nil {
			t.Fatal(err)
		}
		refCfg := cfg
		refCfg.Parallelism = 0
		requireIdentical(t, fmt.Sprintf("par=%d", par), live, refFitClassifier(refCfg, X, y, 3, nil))

		liveR := New(cfg)
		if err := liveR.FitRegressor(X, yf, nil); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("par=%d/reg", par), liveR, refFitRegressor(refCfg, X, yf, nil))
	}
}

// TestRefTrainMatrixReuse pins that a shared, reused Matrix (the forest
// path) trains the same trees as the reference: across fits on one
// dataset, and after it is released and acquired, or Reset, for other
// data. A pooled Matrix keeps its slabs, and ranks or orders left over
// from its previous data would train wrong trees silently.
func TestRefTrainMatrixReuse(t *testing.T) {
	X, y, _ := refData(200, 10, 17, true)
	m := AcquireMatrix(X)
	rng := util.NewRNG(3)
	for trial := 0; trial < 3; trial++ {
		idx := refBootstrap(len(X), rng)
		cfg := Config{MaxFeatures: 4, Seed: int64(trial)}
		viaMatrix := New(cfg)
		if err := viaMatrix.FitClassifierMatrix(m, y, 3, idx); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("trial%d", trial), viaMatrix, refFitClassifier(cfg, X, y, 3, idx))
	}

	X1, y1 := refPairShapedData(240, 23)
	X2, y2, _ := refData(310, 7, 29, false) // another shape, other values
	X3, y3 := refPairShapedData(240, 31)    // X1's shape, other values
	fitBoth := func(name string, X [][]float64, y []int) {
		t.Helper()
		for _, cfg := range []Config{{MaxFeatures: 3, Seed: 5}, {MinLeaf: 2}} {
			live := New(cfg)
			if err := live.FitClassifierMatrix(m, y, 3, nil); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%s/maxfeat=%d", name, cfg.MaxFeatures), live, refFitClassifier(cfg, X, y, 3, nil))
		}
	}
	m.Release()
	m = AcquireMatrix(X1)
	fitBoth("reacquired", X1, y1)
	m.Release()
	m = AcquireMatrix(X2)
	fitBoth("reacquired again", X2, y2)
	// The pool may hand out a fresh Matrix; Reset is what a reused one runs.
	m.Reset(X3)
	fitBoth("reset", X3, y3)
	m.Reset(X1)
	fitBoth("reset back", X1, y1)
	m.Release()
}

// TestRefTrainDegenerateInputs pins the engine's edge behavior to the
// seed's: constant features, single-sample sets, and two-class splits.
func TestRefTrainDegenerateInputs(t *testing.T) {
	// All-constant matrix: no split exists, root is a leaf.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	live := New(Config{})
	if err := live.FitClassifier(X, []int{0, 1, 0}, 2, nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "constant", live, refFitClassifier(Config{}, X, []int{0, 1, 0}, 2, nil))

	// Single sample.
	live = New(Config{})
	if err := live.FitClassifier([][]float64{{2, 3}}, []int{1}, 2, nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "single", live, refFitClassifier(Config{}, [][]float64{{2, 3}}, []int{1}, 2, nil))

	// Values whose midpoint threshold needs exact float arithmetic.
	X = [][]float64{{0.1}, {0.2}, {0.30000000000000004}, {0.3}}
	y := []int{0, 0, 1, 1}
	live = New(Config{})
	if err := live.FitClassifier(X, y, 2, nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "midpoint", live, refFitClassifier(Config{}, X, y, 2, nil))

	if math.IsNaN(live.PredictProba([]float64{0.15})[0]) {
		t.Fatal("prediction NaN on a well-formed fit")
	}
}
