// Package embed learns fixed-dimension plan and workload embeddings from
// execution telemetry — the workload-characterization layer the paper's
// adaptive-model story (§4.3) needs once hand-built channel statistics stop
// being enough. A small autoencoder (internal/ml/nn, dense stack, MSE loss)
// is trained to reconstruct featurized plan channel vectors; its bottleneck
// activations are the plan embedding. Workload embeddings pool the first
// and second moments of plan embeddings (record-weighted, centered and
// scaled by the encoder's training geometry, L2-normalized), so two
// workloads compare by cosine similarity regardless of volume.
//
// Everything is deterministic under a fixed Config.Seed: encoder training
// is strictly serial inside nn, so embeddings are bit-identical at any host
// parallelism setting (pinned by TestEncoderDeterministic).
package embed

import (
	"fmt"
	"math"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml/nn"
	"repro/internal/obs"
)

// Encoder metric handles (see DESIGN.md §16).
var (
	mEncoderTrain = obs.H("embed.encoder.train")
	mPlanEmbeds   = obs.C("embed.plan.embeds")
)

// Embedding-geometry defaults: an 8-dim bottleneck under a 24-unit
// pre-bottleneck layer compresses the ~few-hundred-dim plan channel space
// without memorizing it; 40 epochs converge on the window sizes the learn
// loop compacts.
const (
	DefaultDim    = 8
	DefaultHidden = 24
	DefaultEpochs = 40
)

// Config declares an encoder's architecture and training run.
type Config struct {
	// Channels are the featurizer channels the encoder reads (default
	// feat.DefaultChannels); input dim is len(Channels)*plan.NumKeys+1.
	Channels []feat.Channel
	// Dim is the embedding (bottleneck) width.
	Dim int
	// Hidden is the pre-bottleneck layer width.
	Hidden int
	// Epochs is the autoencoder's training budget.
	Epochs int
	// Seed drives initialization and shuffling; fixed seed + fixed inputs =
	// bit-identical encoder.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Channels) == 0 {
		c.Channels = feat.DefaultChannels()
	}
	if c.Dim <= 0 {
		c.Dim = DefaultDim
	}
	if c.Hidden <= 0 {
		c.Hidden = DefaultHidden
	}
	if c.Epochs <= 0 {
		c.Epochs = DefaultEpochs
	}
	return c
}

// InputDim is the encoder input width for a channel set: every channel's
// operator-key vector plus the optimizer's total cost estimate.
func InputDim(channels []feat.Channel) int {
	return len(channels)*plan.NumKeys + 1
}

// Encoder is a trained plan autoencoder: EmbedPlan projects a featurized
// plan into the bottleneck space. Safe for concurrent use once trained.
//
// Alongside the network the encoder keeps its training geometry — the
// centroid and RMS radius of the training embeddings. Raw bottleneck
// activations share a large common offset (biases plus the data's mean
// activation), which would pin every workload's pooled vector in nearly
// the same direction and make cosine comparisons useless; workload vectors
// are therefore built from *centered, spread-normalized* embeddings.
type Encoder struct {
	channels []feat.Channel
	dim      int
	net      *nn.Net
	// center is the training centroid in embedding space; scale the RMS
	// distance of training embeddings from it (floored, so degenerate
	// training windows cannot divide by zero).
	center []float64
	scale  float64
}

// Channels returns the channel set the encoder was trained on.
func (e *Encoder) Channels() []feat.Channel { return e.channels }

// Dim returns the embedding width.
func (e *Encoder) Dim() int { return e.dim }

// PlanInput builds the encoder's input vector from per-channel plan vectors
// (feat channel order, each padded to plan.NumKeys) and the estimated total
// cost. Channel attributes and the cost estimate are mapped through signed
// log1p: plan costs are heavy-tailed and the autoencoder should spend its
// capacity on shape, not magnitude.
func PlanInput(channels []feat.Channel, vectors [][]float64, estTotalCost float64) []float64 {
	in := make([]float64, 0, InputDim(channels))
	for ci := range channels {
		var v []float64
		if ci < len(vectors) {
			v = vectors[ci]
		}
		for k := 0; k < plan.NumKeys; k++ {
			var x float64
			if k < len(v) {
				x = v[k]
			}
			in = append(in, signedLog1p(x))
		}
	}
	return append(in, signedLog1p(estTotalCost))
}

func signedLog1p(x float64) float64 {
	if x < 0 {
		return -math.Log1p(-x)
	}
	return math.Log1p(x)
}

// Train fits a plan autoencoder over encoder input vectors (PlanInput
// rows). At least two samples are required — a single plan has no workload
// shape to learn.
func Train(inputs [][]float64, cfg Config) (*Encoder, error) {
	cfg = cfg.withDefaults()
	if len(inputs) < 2 {
		return nil, fmt.Errorf("embed: need at least 2 samples to train an encoder, have %d", len(inputs))
	}
	want := InputDim(cfg.Channels)
	for i, in := range inputs {
		if len(in) != want {
			return nil, fmt.Errorf("embed: sample %d has dim %d, want %d", i, len(in), want)
		}
	}
	sp := obs.StartSpan("embed.encoder.train")
	defer sp.End()
	// The bottleneck is linear (identity activation): a saturating
	// nonlinearity there collapses out-of-distribution plans onto the same
	// corner of the cube, which is exactly where the drift detector needs
	// resolution. The pre-bottleneck layer stays tanh for capacity.
	net := nn.New(nn.Config{
		Hidden: []nn.LayerSpec{
			{Kind: nn.Dense, Out: cfg.Hidden, Act: nn.Tanh},
			{Kind: nn.Dense, Out: cfg.Dim, Act: nn.Identity},
		},
		Epochs:    cfg.Epochs,
		BatchSize: 16,
		Seed:      cfg.Seed,
	})
	if err := net.FitTargets(inputs, inputs); err != nil {
		return nil, fmt.Errorf("embed: training encoder: %w", err)
	}
	mEncoderTrain.Observe(float64(cfg.Epochs))
	e := &Encoder{channels: append([]feat.Channel(nil), cfg.Channels...), dim: cfg.Dim, net: net}
	// Capture the training geometry: centroid and RMS radius of the
	// training embeddings. Workload vectors are expressed relative to it.
	e.center = make([]float64, cfg.Dim)
	embs := make([][]float64, len(inputs))
	for i, in := range inputs {
		embs[i] = net.Hidden(in)
		for j, v := range embs[i] {
			e.center[j] += v / float64(len(inputs))
		}
	}
	var r2 float64
	for _, emb := range embs {
		for j, v := range emb {
			d := v - e.center[j]
			r2 += d * d
		}
	}
	e.scale = math.Sqrt(r2 / float64(len(inputs)))
	if e.scale < minScale {
		e.scale = minScale
	}
	return e, nil
}

// minScale floors the training radius: a degenerate window (all plans
// identical) still yields a usable, if insensitive, geometry.
const minScale = 1e-6

// EmbedPlan projects one featurized plan (per-channel vectors + estimated
// total cost) into the embedding space.
func (e *Encoder) EmbedPlan(vectors [][]float64, estTotalCost float64) []float64 {
	mPlanEmbeds.Inc()
	return e.net.Hidden(PlanInput(e.channels, vectors, estTotalCost))
}

// Sample is one plan observation ready to embed: canonical channel vectors
// (feat order, padded to plan.NumKeys), the optimizer estimate, the
// template group, and the record weight.
type Sample struct {
	Vectors  [][]float64
	Est      float64
	Template uint64
	Weight   float64
}

// RecordSamples converts raw telemetry into embedding samples, skipping
// records that fail the same validation compaction applies (bad costs,
// malformed channels). Order is preserved, so pooling is deterministic.
func RecordSamples(recs []expdata.PlanRecord, channels []feat.Channel) []Sample {
	names := make([]string, len(channels))
	for i, c := range channels {
		names[i] = c.String()
	}
	out := make([]Sample, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.CheckCosts() != nil {
			continue
		}
		vs, _, err := r.ChannelVectors(names, plan.NumKeys)
		if err != nil {
			continue
		}
		out = append(out, Sample{
			Vectors:  vs,
			Est:      r.EstTotalCost,
			Template: r.TemplateGroup(),
			Weight:   r.EffectiveWeight(),
		})
	}
	return out
}

// WorkloadEmbedding is a workload's fixed-dimension summary: the
// L2-normalized concatenation of the weighted mean and weighted spread of
// its plan embeddings, both expressed relative to the encoder's training
// geometry. Two workloads compare by cosine similarity; Dim is the vector
// length (2× the encoder's bottleneck width).
type WorkloadEmbedding struct {
	Dim       int       `json:"dim"`
	Vector    []float64 `json:"vector"`
	Records   int       `json:"records"`
	Templates int       `json:"templates"`
	// EncoderVersion is the registry version of the encoder that produced
	// the vector (0 for unversioned encoders).
	EncoderVersion int `json:"encoder_version,omitempty"`
}

// Workload pools plan embeddings into one workload embedding. Every plan
// embedding is first centered by the encoder's training centroid and scaled
// by its training radius; the workload vector is then the concatenation of
// the record-weight-weighted mean and weighted standard deviation of those
// normalized embeddings, L2-normalized. The mean half captures where the
// workload sits relative to the encoder's training distribution (≈0 on the
// training window itself), the spread half its shape — so both location and
// dispersion shifts rotate the vector. Pooling is a streaming moment
// accumulation, so identical sample sequences pool identically. Returns nil
// when no sample survives.
func (e *Encoder) Workload(samples []Sample) *WorkloadEmbedding {
	sum := make([]float64, e.dim)
	sumSq := make([]float64, e.dim)
	var total float64
	seen := map[uint64]struct{}{}
	for i := range samples {
		s := &samples[i]
		w := s.Weight
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			w = 1
		}
		emb := e.EmbedPlan(s.Vectors, s.Est)
		for j, v := range emb {
			z := (v - e.center[j]) / e.scale
			sum[j] += w * z
			sumSq[j] += w * z * z
		}
		total += w
		seen[s.Template] = struct{}{}
	}
	if total == 0 {
		return nil
	}
	pooled := make([]float64, 2*e.dim)
	for j := 0; j < e.dim; j++ {
		mean := sum[j] / total
		varj := sumSq[j]/total - mean*mean
		if varj < 0 { // float cancellation
			varj = 0
		}
		pooled[j] = mean
		pooled[e.dim+j] = math.Sqrt(varj)
	}
	normalize(pooled)
	return &WorkloadEmbedding{
		Dim:       2 * e.dim,
		Vector:    pooled,
		Records:   len(samples),
		Templates: len(seen),
	}
}

// normalize scales v to unit L2 norm in place (no-op on the zero vector).
func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

// Cosine returns the cosine similarity of two vectors (0 for mismatched or
// zero-norm inputs).
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Distance is the cosine distance 1−cos(a,b) — 0 for identical directions,
// 2 for opposite. Floored at 0: float error can push the cosine of two
// identical vectors a hair past 1, and a drift distance must never be
// negative. The drift detector compares it against
// Options.EmbedDriftThreshold.
func Distance(a, b []float64) float64 {
	if d := 1 - Cosine(a, b); d > 0 {
		return d
	}
	return 0
}
