// Package learn closes the paper's feedback loop (§2.1, §4.3): execution
// telemetry ingested by the serving daemon is continuously folded back into
// the plan-pair classifier, so the model that gates index recommendations
// tracks the workload instead of freezing at its training snapshot.
//
// The pipeline has five stages, run as one "cycle":
//
//	telemetry PlanRecords
//	    │ 1. compaction  — validate, dedup, window, pair + label (α rule of §2.2)
//	    ▼
//	labeled pair vectors
//	    │ 2. triggers    — drift in feature-channel mass, champion accuracy
//	    │                  decay on fresh pairs, record count
//	    ▼
//	    │ 3. training    — challenger RF on the train split (bounded worker,
//	    │                  context-cancellable)
//	    ▼
//	    │ 4. shadow eval — champion vs challenger on held-out templates
//	    │                  (template-hash split: a template never straddles
//	    │                  train/eval, mirroring expdata.SplitQuery)
//	    ▼
//	    │ 5. promotion   — challenger admitted to the registry only when it
//	    │                  beats the champion by a margin; after promotion,
//	    │                  live accuracy on subsequent telemetry is monitored
//	    │                  and the prior version restored on degradation —
//	    │                  the continuous tuner's revert-on-regression, at
//	    │                  the model layer.
//
// Every stage is deterministic under a fixed Options.Seed: identical
// telemetry and options produce identical promotion decisions (pinned by
// TestLoopDeterministic).
package learn

import (
	"time"

	"repro/internal/expdata"
	"repro/internal/feat"
)

// DefaultOptions tuning knobs.
const (
	defaultTrees               = 60
	defaultWindow              = 5000
	defaultMaxPairsPerTemplate = 60
	defaultMinRecords          = 12
	defaultMinTrainPairs       = 20
	defaultMinEvalPairs        = 10
	defaultMinAccuracy         = 0.55
	defaultRollbackMinPairs    = 12
	defaultDriftThreshold      = 3.0
	defaultRecordThreshold     = 64
	defaultEmbedDriftThreshold = 0.10
)

// Fixed settings of every cycle.
const (
	// evalFrac is the fraction of labeled pairs held out for shadow
	// evaluation, assigned whole template groups at a time.
	evalFrac = 0.3
	// promoteMargin is how much shadow-eval accuracy the challenger must
	// add over the champion to be promoted.
	promoteMargin = 0.01
	// rollbackMargin is how far live accuracy may trail the promoted
	// challenger's shadow accuracy before the prior version is restored.
	rollbackMargin = 0.10
)

// Drift-detector modes (Options.DriftMode): the hand-built per-channel
// z-score detector, the learned embedding-distance detector (DESIGN.md
// §16), or both side by side (either firing triggers a retrain).
const (
	DriftModeZ     = "z"
	DriftModeEmbed = "embed"
	DriftModeBoth  = "both"
)

// Options configure the learning loop. The zero value is usable: every
// field has a conservative default (see withDefaults).
type Options struct {
	// Alpha is the significance threshold labeling compacted pairs (§2.2).
	Alpha float64
	// Seed drives every random choice in a cycle (train/eval split, forest
	// training); fixed seed + fixed telemetry = fixed decisions.
	Seed int64
	// Trees is the challenger's random-forest size.
	Trees int
	// TrainParallelism bounds the workers growing the challenger's trees
	// (0 = GOMAXPROCS, 1 = serial). Purely an execution knob: per-tree seeds
	// derive from the cycle seed alone, so every setting trains the
	// byte-identical model.
	TrainParallelism int

	// Window bounds compaction to the most recent records (after dedup);
	// 0 means the default, <0 means unbounded.
	Window int
	// MaxPairsPerTemplate caps labeled pairs emitted per (db, query) group.
	MaxPairsPerTemplate int

	// MinRecords is the minimum compacted record count to attempt training.
	MinRecords int
	// MinTrainPairs / MinEvalPairs are the minimum split sizes; below them
	// the cycle is rejected (not enough signal to judge a challenger).
	MinTrainPairs int
	MinEvalPairs  int

	// MinAccuracy is the absolute shadow-eval accuracy floor a challenger
	// must reach, champion or not. A champion whose accuracy on fresh
	// labeled pairs falls below it triggers a retrain.
	MinAccuracy float64

	// RollbackMinPairs is the minimum number of post-promotion labeled
	// pairs before the live check runs (too few pairs would make rollback
	// decisions noise-driven).
	RollbackMinPairs int

	// DriftThreshold is the feature-drift score above which a retrain
	// triggers (see DriftScore: normalized channel-mass shift in std units).
	DriftThreshold float64
	// DriftMode selects the drift detector: DriftModeZ (default, the
	// z-score detector above), DriftModeEmbed (cosine distance between the
	// current window's workload embedding and the reference captured at the
	// last promotion), or DriftModeBoth (either firing triggers). Outside
	// DriftModeZ, every promotion also trains and versions a plan encoder.
	DriftMode string
	// EmbedDriftThreshold is the workload-embedding cosine distance above
	// which embedding-mode drift fires (default 0.10).
	EmbedDriftThreshold float64
	// EmbedEpochs sets the training epochs of the plan encoder trained at
	// promotions (0 = the embed package default).
	EmbedEpochs int
	// RecordThreshold triggers a retrain after this many new records.
	RecordThreshold int
	// Interval is the auto-loop tick period; 0 disables the background
	// ticker (cycles then run only on explicit triggers).
	Interval time.Duration

	// DryRun evaluates challengers but never touches the registry (the
	// one-shot CLI's preview mode).
	DryRun bool
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = expdata.DefaultAlpha
	}
	if o.Trees <= 0 {
		o.Trees = defaultTrees
	}
	if o.Window == 0 {
		o.Window = defaultWindow
	}
	if o.MaxPairsPerTemplate <= 0 {
		o.MaxPairsPerTemplate = defaultMaxPairsPerTemplate
	}
	if o.MinRecords <= 0 {
		o.MinRecords = defaultMinRecords
	}
	if o.MinTrainPairs <= 0 {
		o.MinTrainPairs = defaultMinTrainPairs
	}
	if o.MinEvalPairs <= 0 {
		o.MinEvalPairs = defaultMinEvalPairs
	}
	if o.MinAccuracy <= 0 {
		o.MinAccuracy = defaultMinAccuracy
	}
	if o.RollbackMinPairs <= 0 {
		o.RollbackMinPairs = defaultRollbackMinPairs
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = defaultDriftThreshold
	}
	switch o.DriftMode {
	case DriftModeEmbed, DriftModeBoth:
	default:
		o.DriftMode = DriftModeZ
	}
	if o.EmbedDriftThreshold <= 0 {
		o.EmbedDriftThreshold = defaultEmbedDriftThreshold
	}
	if o.RecordThreshold <= 0 {
		o.RecordThreshold = defaultRecordThreshold
	}
	return o
}

// featurizer returns the loop's featurization recipe — the paper's
// reference configuration, matching what TrainClassifierFromTelemetry and
// the serving classifier use.
func (o Options) featurizer() *feat.Featurizer { return feat.Default() }
