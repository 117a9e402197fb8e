package learn

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/embed"
	"repro/internal/obs"
)

// Embedding-drift metric handles (see DESIGN.md §16).
var (
	mEmbedDrift    = obs.G("learn.drift.embed")
	mEncoderTrains = obs.C("learn.encoder.trains")
)

// ErrNoEncoder is returned by Embedding before the first encoder-training
// promotion (or in DriftModeZ, where encoders never train).
var ErrNoEncoder = errors.New("learn: no plan encoder trained yet")

// embedMode reports whether the loop maintains encoders and embedding
// references (any mode but the pure z-score detector).
func (o Options) embedMode() bool { return o.DriftMode != DriftModeZ }

// planSamples converts a compacted window into embedding samples, in
// recency order (compaction already validated and canonicalized every
// record, so no sample is dropped here).
func planSamples(set *LabeledSet) []embed.Sample {
	out := make([]embed.Sample, 0, len(set.Records))
	for i := range set.Records {
		cr := &set.Records[i]
		out = append(out, embed.Sample{
			Vectors:  cr.vectors,
			Est:      cr.rec.EstTotalCost,
			Template: cr.template,
			Weight:   cr.rec.EffectiveWeight(),
		})
	}
	return out
}

// trainEncoder fits a plan encoder over a compacted window under the
// cycle's derived seed.
func trainEncoder(set *LabeledSet, o Options, cycleSeed int64) (*embed.Encoder, error) {
	samples := planSamples(set)
	channels := o.featurizer().Channels
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = embed.PlanInput(channels, s.Vectors, s.Est)
	}
	enc, err := embed.Train(inputs, embed.Config{
		Channels: channels,
		Epochs:   o.EmbedEpochs,
		// Offset the cycle seed so the encoder's RNG stream never collides
		// with the forest's or the split's.
		Seed: cycleSeed + 500009,
	})
	if err != nil {
		return nil, err
	}
	mEncoderTrains.Inc()
	return enc, nil
}

// driftVerdict is the drift detectors' combination rule, factored into a
// pure function so the both-mode verdict is order-independent by
// construction: both booleans are evaluated before either is consulted
// (pinned by TestDriftVerdictOrderIndependent).
func driftVerdict(o Options, zScore float64, zValid bool, embedDist float64, embedValid bool) (fired bool, trigger string) {
	zFired := zValid && zScore > o.DriftThreshold
	embedFired := embedValid && embedDist > o.EmbedDriftThreshold
	switch o.DriftMode {
	case DriftModeEmbed:
		zFired = false
	case DriftModeZ:
		embedFired = false
	}
	switch {
	case zFired:
		return true, "drift"
	case embedFired:
		return true, "embed-drift"
	}
	return false, ""
}

// embedDistance measures the current window against the reference workload
// embedding (0, false when either side is missing or empty).
func embedDistance(enc *embed.Encoder, ref *embed.WorkloadEmbedding, set *LabeledSet) (float64, bool) {
	if enc == nil || ref == nil || len(set.Records) == 0 {
		return 0, false
	}
	cur := enc.Workload(planSamples(set))
	if cur == nil {
		return 0, false
	}
	d := embed.Distance(ref.Vector, cur.Vector)
	mEmbedDrift.Set(d)
	return d, true
}

// promoteEncoder runs the embedding side of a promotion: train an encoder
// on the promoted window, version it in the registry (same
// validate-before-admit path as an upload), and capture the window's
// workload embedding — under the new encoder — as the drift reference,
// persisting it for cross-tenant warm-start scans. Failures degrade to the
// z-score detector (noted on the report) instead of failing the promotion:
// the classifier swap already happened and is the load-bearing part.
func (l *Loop) promoteEncoder(rep *CycleReport, set *LabeledSet, cycleSeed int64) {
	enc, err := trainEncoder(set, l.opts, cycleSeed)
	if err != nil {
		rep.Reason += "; encoder: " + err.Error()
		return
	}
	var blob bytes.Buffer
	if err := embed.SaveEncoder(enc, &blob); err != nil {
		rep.Reason += "; encoder: " + err.Error()
		return
	}
	ev, err := l.reg.Encoders.AddAndActivate(blob.Bytes())
	if err != nil {
		rep.Reason += "; encoder: " + err.Error()
		return
	}
	rep.EncoderVersion = ev.ID
	ref := enc.Workload(planSamples(set))
	if ref == nil {
		rep.Reason += "; encoder: empty reference window"
		return
	}
	ref.EncoderVersion = ev.ID
	if err := l.reg.SaveWorkloadEmbedding(ref); err != nil {
		rep.Reason += "; encoder: " + err.Error()
	}
	l.mu.Lock()
	l.embedRef = ref
	l.mu.Unlock()
	if l.keep > 0 {
		if _, err := l.reg.Encoders.Prune(l.keep); err != nil {
			rep.Reason += "; encoder prune: " + err.Error()
		}
	}
}

// EmbeddingStatus is the GET /v1/learn/embedding view: the current window's
// workload embedding under the active encoder, and its distance to the
// reference captured at the last promotion.
type EmbeddingStatus struct {
	DriftMode      string                   `json:"drift_mode"`
	EncoderVersion int                      `json:"encoder_version"`
	Threshold      float64                  `json:"threshold"`
	Embedding      *embed.WorkloadEmbedding `json:"embedding"`
	Reference      *embed.WorkloadEmbedding `json:"reference,omitempty"`
	// Distance is the cosine distance to the reference (0 when none).
	Distance float64 `json:"distance"`
}

// Embedding computes the current workload embedding on demand. Returns
// ErrNoEncoder until a promotion has trained one, and an error when the
// current telemetry window has no usable records to embed.
func (l *Loop) Embedding() (*EmbeddingStatus, error) {
	ev := l.reg.Encoders.Active()
	if ev == nil {
		return nil, ErrNoEncoder
	}
	recs, _ := l.source()
	set := Compact(recs, l.f, l.opts)
	cur := ev.Value.Workload(planSamples(set))
	if cur == nil {
		return nil, fmt.Errorf("learn: no usable telemetry to embed (%d records seen)", len(recs))
	}
	cur.EncoderVersion = ev.ID
	l.mu.Lock()
	ref := l.embedRef
	l.mu.Unlock()
	st := &EmbeddingStatus{
		DriftMode:      l.opts.DriftMode,
		EncoderVersion: ev.ID,
		Threshold:      l.opts.EmbedDriftThreshold,
		Embedding:      cur,
		Reference:      ref,
	}
	if ref != nil {
		st.Distance = embed.Distance(ref.Vector, cur.Vector)
	}
	return st, nil
}
