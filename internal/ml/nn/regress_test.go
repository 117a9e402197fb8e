package nn

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/util"
)

// autoData synthesizes inputs on a low-dimensional manifold an autoencoder
// can compress: each 8-dim sample is a linear mix of two latent factors.
func autoData(n int, seed int64) [][]float64 {
	rng := util.NewRNG(seed)
	X := make([][]float64, n)
	for i := range X {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		row := make([]float64, 8)
		for j := range row {
			row[j] = a*math.Sin(float64(j)) + b*math.Cos(float64(2*j))
		}
		X[i] = row
	}
	return X
}

// regress runs the non-mutating forward pass and returns the raw linear
// outputs (no softmax) — the autoencoder's reconstruction.
func regress(n *Net, x []float64) []float64 {
	s := inferPool.Get().(*inferScratch)
	out := append([]float64(nil), n.infer(x, true, s)...)
	inferPool.Put(s)
	return out
}

func autoNet(seed int64) *Net {
	return New(Config{
		Hidden: []LayerSpec{{Kind: Dense, Out: 16, Act: Tanh}, {Kind: Dense, Out: 3, Act: Tanh}},
		Epochs: 60,
		Seed:   seed,
	})
}

// TestFitTargetsAutoencoder: reconstruction error must be far below the
// variance of the data — the bottleneck learns the manifold.
func TestFitTargetsAutoencoder(t *testing.T) {
	X := autoData(200, 1)
	n := autoNet(7)
	if err := n.FitTargets(X, X); err != nil {
		t.Fatal(err)
	}
	var mse, variance float64
	var mean [8]float64
	for _, x := range X {
		for j, v := range x {
			mean[j] += v / float64(len(X))
		}
	}
	for _, x := range X {
		rec := regress(n, x)
		for j, v := range x {
			mse += (rec[j] - v) * (rec[j] - v)
			variance += (v - mean[j]) * (v - mean[j])
		}
	}
	if mse >= variance/4 {
		t.Fatalf("reconstruction MSE %.4f not well below data variance %.4f", mse, variance)
	}
	if got := len(n.Hidden(X[0])); got != 3 {
		t.Fatalf("bottleneck width = %d, want 3", got)
	}
}

// TestFitTargetsDeterministic: same seed, same data → bit-identical
// embeddings across independent training runs.
func TestFitTargetsDeterministic(t *testing.T) {
	X := autoData(100, 2)
	run := func() [][]float64 {
		n := autoNet(11)
		if err := n.FitTargets(X, X); err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, len(X))
		for i, x := range X {
			out[i] = n.Hidden(x)
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two same-seed training runs produced different embeddings")
	}
}

// TestDumpRoundTrip: a restored network's forward pass is bit-identical.
func TestDumpRoundTrip(t *testing.T) {
	X := autoData(100, 3)
	n := autoNet(5)
	if err := n.FitTargets(X, X); err != nil {
		t.Fatal(err)
	}
	d, err := n.Dump()
	if err != nil {
		t.Fatal(err)
	}
	back, err := NetFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:10] {
		if !reflect.DeepEqual(n.Hidden(x), back.Hidden(x)) {
			t.Fatal("restored hidden activations differ")
		}
		if !reflect.DeepEqual(regress(n, x), regress(back, x)) {
			t.Fatal("restored outputs differ")
		}
	}
}

// TestNetFromDumpRejectsHostile: malformed dumps error, never panic.
func TestNetFromDumpRejectsHostile(t *testing.T) {
	X := autoData(50, 4)
	n := autoNet(5)
	if err := n.FitTargets(X, X); err != nil {
		t.Fatal(err)
	}
	good, err := n.Dump()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Dump){
		"nan weight":       func(d *Dump) { d.Hidden[0].W[0][0] = math.NaN() },
		"inf bias":         func(d *Dump) { d.Output.B[0] = math.Inf(1) },
		"bad indim":        func(d *Dump) { d.InDim = -1 },
		"huge indim":       func(d *Dump) { d.InDim = maxDumpWidth + 1 },
		"short row":        func(d *Dump) { d.Hidden[0].W[0] = d.Hidden[0].W[0][:2] },
		"bias mismatch":    func(d *Dump) { d.Output.B = d.Output.B[:1] },
		"bad act":          func(d *Dump) { d.Hidden[1].Act = Activation(99) },
		"std mismatch":     func(d *Dump) { d.Std = d.Std[:3] },
		"nan standardizer": func(d *Dump) { d.Mean[0] = math.NaN() },
	}
	for name, corrupt := range cases {
		c := *good
		c.Mean = append([]float64(nil), good.Mean...)
		c.Std = append([]float64(nil), good.Std...)
		c.Hidden = make([]LayerDump, len(good.Hidden))
		for i, ld := range good.Hidden {
			c.Hidden[i] = cloneLayerDump(ld)
		}
		c.Output = cloneLayerDump(good.Output)
		corrupt(&c)
		if _, err := NetFromDump(&c); err == nil {
			t.Errorf("%s: hostile dump accepted", name)
		}
	}
}

func cloneLayerDump(ld LayerDump) LayerDump {
	out := LayerDump{Act: ld.Act, B: append([]float64(nil), ld.B...)}
	out.W = make([][]float64, len(ld.W))
	for o := range ld.W {
		out.W[o] = append([]float64(nil), ld.W[o]...)
	}
	return out
}
