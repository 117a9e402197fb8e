// Package nn implements the feed-forward neural networks of §6.2:
// fully-connected and partially-connected architectures (per-operator-key
// blocks with no cross-key connections in early layers), tanh activations,
// clipped-normal initialization, dropout and L2 regularization, Adam with
// plateau-halving adaptive learning rate, skip connections, and highway
// layers. Layer freezing supports the transfer-learning adaptation of
// §6.2.3, and the last hidden layer is exposed for the Hybrid DNN (§6.2.2).
package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/util"
)

// Training metric handles (see DESIGN.md §7). The epoch-loss gauge tracks
// the latest mean cross-entropy; epochLoss itself is already computed for
// the plateau logic, so recording it is free.
var (
	mEpochs    = obs.C("train.nn.epochs")
	mEpochLoss = obs.G("train.nn.epoch.loss")
	mLRHalved  = obs.C("train.nn.lr.halved")
)

// Activation selects a nonlinearity.
type Activation int

// Activations.
const (
	Tanh Activation = iota
	ReLU
	Identity
)

func act(a Activation, x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

func actGrad(a Activation, x, y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if x < 0 {
			return 0
		}
		return 1
	default:
		return 1
	}
}

// LayerKind selects the layer structure.
type LayerKind int

// Layer kinds.
const (
	// Dense is a fully-connected layer.
	Dense LayerKind = iota
	// PartialGroup connects inputs only within their key group (§6.2.1).
	PartialGroup
	// Highway is a gated residual layer (same in/out width).
	Highway
)

// LayerSpec declares one hidden layer.
type LayerSpec struct {
	Kind LayerKind
	// Out is the output width (Dense), units per group (PartialGroup), or
	// ignored for Highway (width preserved).
	Out int
	// Act is the activation (default Tanh).
	Act Activation
	// Dropout is the drop probability during training.
	Dropout float64
	// Skip adds the input of this layer to its output (residual); widths
	// must match.
	Skip bool
}

// Config declares a network.
type Config struct {
	// Hidden are the hidden layers; an output softmax layer is appended.
	Hidden []LayerSpec
	// KeyGroups maps each input attribute to its operator-key group
	// (feat.Featurizer.KeyGroups); required when PartialGroup layers are
	// used. Group -1 attributes bypass partial layers and are concatenated
	// at the first dense layer.
	KeyGroups []int
	// LearningRate is Adam's initial step (default 0.01, as the paper).
	LearningRate float64
	// L2 is weight decay (paper: 1e-3).
	L2 float64
	// Epochs per Fit call (default 30).
	Epochs int
	// BatchSize (default 32).
	BatchSize int
	// AdaptLR halves the rate on loss plateaus, up to 10 times (§7.4).
	AdaptLR bool
	// Seed drives initialization, shuffling, and dropout.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// block is one weight block: rows of out units over a contiguous set of
// input positions.
type block struct {
	inIdx []int // input positions this block reads
	out   int   // number of output units
	// W[o][i], B[o]; Adam moments of the same shape.
	W, mW, vW [][]float64
	B, mB, vB []float64
}

// layer is one trainable layer, possibly composed of several blocks
// (PartialGroup) or a single block (Dense). Highway layers carry a second
// gate block.
type layer struct {
	spec   LayerSpec
	blocks []*block
	gate   []*block // highway transform gate
	outDim int
	// caches for backward (per sample, single-threaded training)
	inCache   []float64
	preCache  []float64
	outCache  []float64
	gateCache []float64
	dropMask  []float64
}

// Net is a feed-forward classifier network.
type Net struct {
	cfg    Config
	layers []*layer
	out    *layer // softmax output layer
	std    *ml.Standardizer
	k      int
	inDim  int
	rng    *util.RNG
	adamT  int
	lr     float64
	built  bool
}

// New returns an untrained network.
func New(cfg Config) *Net {
	return &Net{cfg: cfg.withDefaults()}
}

// clippedNormal draws N(0, std) clipped to ±2 std (§7.4's initialization).
func clippedNormal(rng *util.RNG, std float64) float64 {
	v := rng.NormFloat64() * std
	return util.Clip(v, -2*std, 2*std)
}

func newBlock(rng *util.RNG, inIdx []int, out int) *block {
	b := &block{inIdx: inIdx, out: out}
	std := math.Sqrt(1 / float64(len(inIdx)+1))
	alloc := func() [][]float64 {
		m := make([][]float64, out)
		for o := range m {
			m[o] = make([]float64, len(inIdx))
		}
		return m
	}
	b.W, b.mW, b.vW = alloc(), alloc(), alloc()
	for o := range b.W {
		for i := range b.W[o] {
			b.W[o][i] = clippedNormal(rng, std)
		}
	}
	b.B, b.mB, b.vB = make([]float64, out), make([]float64, out), make([]float64, out)
	return b
}

func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// build materializes the layer stack for the given input dimensionality.
func (n *Net) build(inDim, numClasses int) error {
	n.inDim = inDim
	n.k = numClasses
	n.rng = util.NewRNG(n.cfg.Seed)
	n.lr = n.cfg.LearningRate
	cur := inDim
	curGroups := n.cfg.KeyGroups
	for li, spec := range n.cfg.Hidden {
		l := &layer{spec: spec}
		switch spec.Kind {
		case PartialGroup:
			if curGroups == nil {
				return fmt.Errorf("nn: PartialGroup layer %d without KeyGroups", li)
			}
			groups := map[int][]int{}
			var order []int
			for i, g := range curGroups {
				if _, ok := groups[g]; !ok && g >= 0 {
					order = append(order, g)
				}
				if g >= 0 {
					groups[g] = append(groups[g], i)
				}
			}
			var nextGroups []int
			for _, g := range order {
				l.blocks = append(l.blocks, newBlock(n.rng, groups[g], spec.Out))
				for u := 0; u < spec.Out; u++ {
					nextGroups = append(nextGroups, g)
				}
			}
			// Ungrouped (-1) inputs pass through unchanged.
			var pass []int
			for i, g := range curGroups {
				if g < 0 {
					pass = append(pass, i)
				}
			}
			if len(pass) > 0 {
				l.blocks = append(l.blocks, passthroughBlock(pass))
				for range pass {
					nextGroups = append(nextGroups, -1)
				}
			}
			l.outDim = len(nextGroups)
			curGroups = nextGroups
		case Highway:
			l.blocks = []*block{newBlock(n.rng, seqIdx(cur), cur)}
			l.gate = []*block{newBlock(n.rng, seqIdx(cur), cur)}
			l.outDim = cur
			curGroups = nil
		default: // Dense
			l.blocks = []*block{newBlock(n.rng, seqIdx(cur), spec.Out)}
			l.outDim = spec.Out
			curGroups = nil
		}
		n.layers = append(n.layers, l)
		cur = l.outDim
	}
	n.out = &layer{
		spec:   LayerSpec{Kind: Dense, Out: numClasses, Act: Identity},
		blocks: []*block{newBlock(n.rng, seqIdx(cur), numClasses)},
		outDim: numClasses,
	}
	n.built = true
	return nil
}

// passthroughBlock is an identity block for ungrouped inputs; it has no
// trainable parameters (nil W signals identity).
func passthroughBlock(inIdx []int) *block {
	return &block{inIdx: inIdx, out: len(inIdx)}
}

func (b *block) isPassthrough() bool { return b.W == nil }

// forward computes a layer's output for one sample, caching for backward.
func (l *layer) forward(x []float64, train bool, rng *util.RNG) []float64 {
	l.inCache = x
	pre := make([]float64, 0, l.outDim)
	for _, b := range l.blocks {
		if b.isPassthrough() {
			for _, i := range b.inIdx {
				pre = append(pre, x[i])
			}
			continue
		}
		for o := 0; o < b.out; o++ {
			s := b.B[o]
			w := b.W[o]
			for ii, i := range b.inIdx {
				s += w[ii] * x[i]
			}
			pre = append(pre, s)
		}
	}
	l.preCache = pre
	out := make([]float64, len(pre))
	for i, v := range pre {
		out[i] = act(l.spec.Act, v)
	}
	if l.spec.Kind == Highway {
		gates := make([]float64, len(pre))
		pos := 0
		for _, g := range l.gate {
			for o := 0; o < g.out; o++ {
				s := g.B[o]
				for ii, i := range g.inIdx {
					s += g.W[o][ii] * x[i]
				}
				gates[pos] = 1 / (1 + math.Exp(-s))
				pos++
			}
		}
		l.gateCache = gates
		for i := range out {
			out[i] = gates[i]*out[i] + (1-gates[i])*x[i]
		}
	} else if l.spec.Skip && len(x) == len(out) {
		for i := range out {
			out[i] += x[i]
		}
	}
	if train && l.spec.Dropout > 0 {
		mask := make([]float64, len(out))
		keep := 1 - l.spec.Dropout
		for i := range out {
			if rng.Float64() < keep {
				mask[i] = 1 / keep
			}
			out[i] *= mask[i]
		}
		l.dropMask = mask
	} else {
		l.dropMask = nil
	}
	l.outCache = out
	return out
}

// backward propagates dL/dout to dL/din, accumulating parameter grads via
// immediate Adam-style accumulation buffers (gradients applied per batch).
func (l *layer) backward(dout []float64, gW map[*block][][]float64, gB map[*block][]float64) []float64 {
	if l.dropMask != nil {
		d := make([]float64, len(dout))
		for i := range dout {
			d[i] = dout[i] * l.dropMask[i]
		}
		dout = d
	}
	din := make([]float64, len(l.inCache))
	if l.spec.Kind == Highway {
		// out = g*h + (1-g)*x, h = act(pre), g = sigmoid(gpre)
		dh := make([]float64, len(dout))
		for i := range dout {
			g := l.gateCache[i]
			dh[i] = dout[i] * g
			din[i] += dout[i] * (1 - g)
		}
		// Gate gradient.
		pos := 0
		for _, gb := range l.gate {
			gWb, gBb := gW[gb], gB[gb]
			for o := 0; o < gb.out; o++ {
				i := pos
				g := l.gateCache[i]
				h := act(l.spec.Act, l.preCache[i])
				dg := dout[i] * (h - l.inCache[i]) * g * (1 - g)
				gBb[o] += dg
				gWo, Wo := gWb[o], gb.W[o]
				for ii, xi := range gb.inIdx {
					gWo[ii] += dg * l.inCache[xi]
					din[xi] += dg * Wo[ii]
				}
				pos++
			}
		}
		dout = dh
	} else if l.spec.Skip && len(l.inCache) == len(dout) {
		copy(din, dout)
	}
	pos := 0
	for _, b := range l.blocks {
		if b.isPassthrough() {
			for _, i := range b.inIdx {
				din[i] += dout[pos]
				pos++
			}
			continue
		}
		gWb, gBb := gW[b], gB[b]
		for o := 0; o < b.out; o++ {
			dpre := dout[pos] * actGrad(l.spec.Act, l.preCache[pos], act(l.spec.Act, l.preCache[pos]))
			gBb[o] += dpre
			gWo, Wo := gWb[o], b.W[o]
			for ii, i := range b.inIdx {
				gWo[ii] += dpre * l.inCache[i]
				din[i] += dpre * Wo[ii]
			}
			pos++
		}
	}
	return din
}

// allBlocks yields every trainable block of the network.
func (n *Net) allBlocks() []*block {
	var out []*block
	for _, l := range n.layers {
		out = append(out, l.blocks...)
		out = append(out, l.gate...)
	}
	out = append(out, n.out.blocks...)
	return out
}

// trainableLayers returns layers in forward order including the output.
func (n *Net) stack() []*layer {
	return append(append([]*layer{}, n.layers...), n.out)
}

// Fit implements ml.Classifier, initializing the network on first call.
func (n *Net) Fit(X [][]float64, y []int, numClasses int) error {
	if len(X) == 0 {
		return fmt.Errorf("nn: empty training set")
	}
	if !n.built {
		if err := n.build(len(X[0]), numClasses); err != nil {
			return err
		}
		n.std = ml.FitStandardizer(X)
	}
	return n.train(X, y)
}

func (n *Net) train(X [][]float64, y []int) error {
	sp := obs.StartSpan("train.nn")
	defer sp.End()
	Xs := n.std.TransformAll(X)
	nrows := len(Xs)
	order := seqIdx(nrows)
	gW := map[*block][][]float64{}
	gB := map[*block][]float64{}
	for _, b := range n.allBlocks() {
		if b.isPassthrough() {
			continue
		}
		m := make([][]float64, b.out)
		for o := range m {
			m[o] = make([]float64, len(b.inIdx))
		}
		gW[b] = m
		gB[b] = make([]float64, b.out)
	}
	bestLoss := math.Inf(1)
	plateau := 0
	adapts := 0
	for ep := 0; ep < n.cfg.Epochs; ep++ {
		n.rng.Shuffle(nrows, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < nrows; start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > nrows {
				end = nrows
			}
			batch := order[start:end]
			for b, m := range gW {
				for o := range m {
					for i := range m[o] {
						m[o][i] = 0
					}
				}
				for o := range gB[b] {
					gB[b][o] = 0
				}
			}
			for _, i := range batch {
				cur := Xs[i]
				stack := n.stack()
				for _, l := range stack {
					cur = l.forward(cur, true, n.rng)
				}
				proba := ml.Softmax(cur)
				epochLoss += -math.Log(math.Max(proba[y[i]], 1e-12))
				dout := make([]float64, len(proba))
				for c := range proba {
					t := 0.0
					if y[i] == c {
						t = 1
					}
					dout[c] = proba[c] - t
				}
				for li := len(stack) - 1; li >= 0; li-- {
					dout = stack[li].backward(dout, gW, gB)
				}
			}
			n.applyGrads(gW, gB, float64(len(batch)))
		}
		epochLoss /= float64(nrows)
		mEpochs.Inc()
		mEpochLoss.Set(epochLoss)
		if n.cfg.AdaptLR {
			if epochLoss < bestLoss-1e-4 {
				bestLoss = epochLoss
				plateau = 0
			} else {
				plateau++
				if plateau >= 3 && adapts < 10 {
					n.lr /= 2
					mLRHalved.Inc()
					adapts++
					plateau = 0
				}
			}
		}
	}
	return nil
}

// applyGrads performs one Adam step over all blocks.
func (n *Net) applyGrads(gW map[*block][][]float64, gB map[*block][]float64, batchSize float64) {
	n.adamT++
	b1c := 1 - math.Pow(0.9, float64(n.adamT))
	b2c := 1 - math.Pow(0.999, float64(n.adamT))
	step := func(b *block) {
		gWb, gBb := gW[b], gB[b]
		for o := range b.W {
			gWo := gWb[o]
			for i := range b.W[o] {
				g := gWo[i]/batchSize + n.cfg.L2*b.W[o][i]
				b.mW[o][i] = 0.9*b.mW[o][i] + 0.1*g
				b.vW[o][i] = 0.999*b.vW[o][i] + 0.001*g*g
				b.W[o][i] -= n.lr * (b.mW[o][i] / b1c) / (math.Sqrt(b.vW[o][i]/b2c) + 1e-8)
			}
			g := gBb[o] / batchSize
			b.mB[o] = 0.9*b.mB[o] + 0.1*g
			b.vB[o] = 0.999*b.vB[o] + 0.001*g*g
			b.B[o] -= n.lr * (b.mB[o] / b1c) / (math.Sqrt(b.vB[o]/b2c) + 1e-8)
		}
	}
	for _, l := range n.layers {
		for _, b := range l.blocks {
			if !b.isPassthrough() {
				step(b)
			}
		}
		for _, b := range l.gate {
			step(b)
		}
	}
	step(n.out.blocks[0])
}

// inferInto computes a layer's inference-time output for one sample into
// dst, without touching the training caches (forward mutates them, which
// made concurrent prediction on a shared trained network a data race).
// src and dst must not alias. Dropout never applies at inference, and the
// accumulation/activation/blend order matches forward(x, false, ·)
// exactly, so the output is bit-identical.
func (l *layer) inferInto(src, dst []float64) []float64 {
	dst = dst[:l.outDim]
	pos := 0
	for _, b := range l.blocks {
		if b.isPassthrough() {
			// forward routes passthrough values through the activation too
			// (they join pre before the activation loop); match it.
			for _, i := range b.inIdx {
				dst[pos] = act(l.spec.Act, src[i])
				pos++
			}
			continue
		}
		for o := 0; o < b.out; o++ {
			s := b.B[o]
			w := b.W[o]
			for ii, i := range b.inIdx {
				s += w[ii] * src[i]
			}
			dst[pos] = act(l.spec.Act, s)
			pos++
		}
	}
	if l.spec.Kind == Highway {
		pos = 0
		for _, g := range l.gate {
			for o := 0; o < g.out; o++ {
				s := g.B[o]
				for ii, i := range g.inIdx {
					s += g.W[o][ii] * src[i]
				}
				gate := 1 / (1 + math.Exp(-s))
				dst[pos] = gate*dst[pos] + (1-gate)*src[pos]
				pos++
			}
		}
	} else if l.spec.Skip && len(src) == len(dst) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	return dst
}

// inferScratch holds the ping-pong activation buffers of the inference
// path; pooled so steady-state prediction does not allocate.
type inferScratch struct{ a, b []float64 }

var inferPool = sync.Pool{New: func() any { return new(inferScratch) }}

// maxWidth returns the widest activation the stack produces.
func (n *Net) maxWidth() int {
	w := n.inDim
	for _, l := range n.layers {
		if l.outDim > w {
			w = l.outDim
		}
	}
	if n.k > w {
		w = n.k
	}
	return w
}

// infer runs the non-mutating forward pass (hidden layers, plus the
// output layer when includeOut), returning the final activations, which
// alias one of the scratch buffers.
func (n *Net) infer(x []float64, includeOut bool, s *inferScratch) []float64 {
	w := n.maxWidth()
	s.a = ml.Grow(s.a, w)
	s.b = ml.Grow(s.b, w)
	cur := n.std.TransformInto(x, s.a[:len(x)])
	useB := true
	step := func(l *layer) {
		dst := s.b
		if !useB {
			dst = s.a
		}
		cur = l.inferInto(cur, dst)
		useB = !useB
	}
	for _, l := range n.layers {
		step(l)
	}
	if includeOut {
		step(n.out)
	}
	return cur
}

// PredictProba implements ml.Classifier.
func (n *Net) PredictProba(x []float64) []float64 {
	return n.PredictProbaInto(x, make([]float64, n.k))
}

// PredictProbaInto implements ml.ProbaInto: activations ping-pong between
// two pooled scratch buffers and the softmax lands in out. Safe for
// concurrent use on a trained network.
func (n *Net) PredictProbaInto(x, out []float64) []float64 {
	s := inferPool.Get().(*inferScratch)
	logits := n.infer(x, true, s)
	out = ml.SoftmaxInto(logits, ml.Grow(out, n.k))
	inferPool.Put(s)
	return out
}

// Hidden returns the activations of the last hidden layer — the latent
// representation the Hybrid DNN feeds into a random forest (§6.2.2).
func (n *Net) Hidden(x []float64) []float64 {
	s := inferPool.Get().(*inferScratch)
	cur := n.infer(x, false, s)
	out := append([]float64(nil), cur...)
	inferPool.Put(s)
	return out
}
