package learn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/embed"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/server/registry"
	"repro/internal/util"
)

// Loop metric handles (see DESIGN.md §11).
var (
	mCycles     = obs.C("learn.cycles")
	mPromotions = obs.C("learn.promotions")
	mRejections = obs.C("learn.rejections")
	mRollbacks  = obs.C("learn.rollbacks")
	// The train path is timed in three phases — learn.train.featurize (in
	// compact.go), learn.train.fit, learn.train.eval.
	// learn.cycle.snapshot times the telemetry read that opens a cycle.
	mFitLatency      = obs.H("learn.train.fit")
	mEvalLatency     = obs.H("learn.train.eval")
	mSnapshotLatency = obs.H("learn.cycle.snapshot")
	mCycleLatency    = obs.H("learn.cycle.latency")
	mChampionAcc     = obs.G("learn.eval.champion_accuracy")
	mChallengerAcc   = obs.G("learn.eval.challenger_accuracy")
	mEvalDelta       = obs.G("learn.eval.delta")
	mLiveAcc         = obs.G("learn.live.accuracy")
)

// ErrCycleRunning is returned by TriggerAsync while a cycle is in flight:
// cycles are serialized, never stacked.
var ErrCycleRunning = errors.New("learn: a learning cycle is already running")

// Source snapshots the telemetry retained by the host (oldest first) along
// with the monotonic total of records ever ingested; the window's last
// record has ordinal total-1. The loop uses the total as a watermark to
// slice records ingested after a promotion.
type Source func() ([]expdata.PlanRecord, int64)

// Decision names a cycle's outcome.
const (
	DecisionPromoted   = "promoted"
	DecisionRejected   = "rejected"
	DecisionRolledBack = "rolled_back"
	DecisionSkipped    = "skipped"
	DecisionMonitoring = "monitoring"
)

// CycleReport is the full record of one learning cycle — what /v1/learn/status
// exposes and the one-shot CLI prints.
type CycleReport struct {
	Cycle      int       `json:"cycle"`
	Trigger    string    `json:"trigger"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`

	// Records is the telemetry snapshot size the cycle saw.
	Records    int          `json:"records"`
	Compaction CompactStats `json:"compaction"`
	// Drift is the window's feature-drift score against the reference
	// summary captured at the last promotion (0 when no reference exists).
	Drift float64 `json:"drift"`
	// EmbedDrift is the workload-embedding cosine distance to the reference
	// embedding (only outside DriftModeZ, and only once an encoder exists).
	EmbedDrift float64 `json:"embed_drift,omitempty"`
	// EncoderVersion is the registry encoder version a promotion trained
	// (only outside DriftModeZ).
	EncoderVersion int `json:"encoder_version,omitempty"`

	TrainPairs int `json:"train_pairs"`
	EvalPairs  int `json:"eval_pairs"`
	// Champion/Challenger are the shadow-evaluation scores on the held-out
	// template groups; Live is the post-promotion check on fresh telemetry.
	Champion   *EvalReport `json:"champion,omitempty"`
	Challenger *EvalReport `json:"challenger,omitempty"`
	Live       *EvalReport `json:"live,omitempty"`

	Decision string `json:"decision"`
	Reason   string `json:"reason"`
	// ChallengerVersion is the registry version a promoted challenger got.
	ChallengerVersion int `json:"challenger_version,omitempty"`
	// ActiveVersion is the serving version after the cycle.
	ActiveVersion int     `json:"active_version"`
	TrainSeconds  float64 `json:"train_seconds"`
	// SnapshotSeconds is the telemetry read (the Source call) that opens
	// the cycle.
	SnapshotSeconds float64 `json:"snapshot_seconds"`
	// FeaturizeSeconds/EvalSeconds break the cycle's model work into its
	// remaining phases: pairing and featurization during compaction and
	// the shadow evaluation (TrainSeconds is the fit).
	FeaturizeSeconds float64 `json:"featurize_seconds,omitempty"`
	EvalSeconds      float64 `json:"eval_seconds,omitempty"`
}

// MonitorStatus describes a promotion awaiting live confirmation.
type MonitorStatus struct {
	PromotedVersion int     `json:"promoted_version"`
	PriorVersion    int     `json:"prior_version"`
	ShadowAccuracy  float64 `json:"shadow_accuracy"`
	// Watermark is the telemetry total at promotion; records past it form
	// the live check's evaluation set.
	Watermark int64 `json:"watermark"`
}

// Status is the loop's JSON view for GET /v1/learn/status.
type Status struct {
	State       string         `json:"state"` // "idle" | "running"
	Cycles      int            `json:"cycles"`
	Promotions  int            `json:"promotions"`
	Rejections  int            `json:"rejections"`
	Rollbacks   int            `json:"rollbacks"`
	RecordsSeen int64          `json:"records_seen"`
	ActiveModel int            `json:"active_model"`
	Monitoring  *MonitorStatus `json:"monitoring,omitempty"`
	LastCycle   *CycleReport   `json:"last_cycle,omitempty"`
}

// Loop is the online learning pipeline: it watches a telemetry Source,
// trains challengers, shadow-evaluates them against the registry's active
// champion, and performs guarded promotions with post-promotion rollback.
// One Loop serializes its cycles; Status is safe to read concurrently.
type Loop struct {
	opts   Options
	f      *feat.Featurizer
	reg    *registry.Registry
	source Source
	// keep is the registry retention budget applied after promotions
	// (0 = keep everything); the rollback target is always pinned.
	keep int

	// trainFn builds the challenger; tests inject deliberately bad models
	// through it to drive the rejection and rollback paths.
	trainFn trainFunc

	mu         sync.Mutex
	running    bool
	cycles     int
	promotions int
	rejections int
	rollbacks  int
	lastCycle  *CycleReport
	lastSeen   int64
	reference  *ChannelSummary
	embedRef   *embed.WorkloadEmbedding
	monitor    *MonitorStatus

	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// NewLoop wires a learning loop over a telemetry source and a model
// registry. keep bounds the registry after promotions (0 keeps everything).
func NewLoop(reg *registry.Registry, source Source, keep int, o Options) *Loop {
	o = o.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	f := o.featurizer()
	return &Loop{
		opts:    o,
		f:       f,
		reg:     reg,
		source:  source,
		keep:    keep,
		trainFn: forestTrainer(f, o),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// Start launches the background ticker when Options.Interval is set; each
// tick evaluates the trigger conditions and runs a cycle when one fires.
// Without an interval, Start is a no-op and cycles run only on TriggerAsync
// or RunCycle.
func (l *Loop) Start() {
	if l.opts.Interval <= 0 {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-l.ctx.Done():
				return
			case <-t.C:
				if trigger := l.dueTrigger(); trigger != "" {
					l.runSerialized(l.ctx, trigger)
				}
			}
		}
	}()
}

// Stop cancels the loop's context (aborting a running cycle at its next
// stage boundary) and waits for background work to unwind.
func (l *Loop) Stop() {
	l.cancel()
	l.wg.Wait()
}

// Status snapshots the loop.
func (l *Loop) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		State:       "idle",
		Cycles:      l.cycles,
		Promotions:  l.promotions,
		Rejections:  l.rejections,
		Rollbacks:   l.rollbacks,
		RecordsSeen: l.lastSeen,
		LastCycle:   l.lastCycle,
	}
	if l.running {
		st.State = "running"
	}
	if l.monitor != nil {
		m := *l.monitor
		st.Monitoring = &m
	}
	if v := l.reg.Models.Active(); v != nil {
		st.ActiveModel = v.ID
	}
	return st
}

// TriggerAsync starts a cycle in the background (the POST /v1/learn/trigger
// path). Exactly one cycle runs at a time; a second trigger while one is in
// flight returns ErrCycleRunning.
func (l *Loop) TriggerAsync(trigger string) error {
	if !l.claim() {
		return ErrCycleRunning
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.runCycleLocked(l.ctx, trigger)
	}()
	return nil
}

// RunCycle runs one synchronous learning cycle (the one-shot CLI path) and
// returns its report. Returns ErrCycleRunning if a background cycle is in
// flight.
func (l *Loop) RunCycle(ctx context.Context, trigger string) (*CycleReport, error) {
	if !l.claim() {
		return nil, ErrCycleRunning
	}
	return l.runCycleLocked(ctx, trigger), nil
}

// runSerialized is the ticker's entry: skips the tick when a manual cycle
// holds the slot.
func (l *Loop) runSerialized(ctx context.Context, trigger string) {
	if l.claim() {
		l.runCycleLocked(ctx, trigger)
	}
}

// claim takes the cycle slot for the caller, reporting false when a cycle
// already holds it. runCycleLocked gives the slot back.
func (l *Loop) claim() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running {
		return false
	}
	l.running = true
	return true
}

// dueTrigger evaluates the retrain conditions against the current
// telemetry and returns the first firing trigger's name ("" = none):
// pending post-promotion monitoring, record-count threshold, feature
// drift, or champion accuracy decay on fresh labeled pairs. A pending
// monitor fires before the telemetry is read, since reading it can mean a
// full pass over a tenant's segments on disk.
func (l *Loop) dueTrigger() string {
	l.mu.Lock()
	monitorPending := l.monitor != nil
	lastSeen := l.lastSeen
	ref := l.reference
	embedRef := l.embedRef
	l.mu.Unlock()

	if monitorPending {
		return "monitor"
	}
	recs, total := l.source()
	if total-lastSeen >= int64(l.opts.RecordThreshold) {
		return "records"
	}
	if total == lastSeen {
		return "" // nothing new: drift/accuracy cannot have changed
	}
	set := Compact(recs, l.f, l.opts)
	if set.Stats.Used < l.opts.MinRecords {
		return ""
	}
	var zScore float64
	if ref != nil {
		zScore = DriftScore(ref, Summarize(set, len(l.f.Channels)))
	}
	var enc *embed.Encoder
	if l.opts.embedMode() {
		if ev := l.reg.Encoders.Active(); ev != nil {
			enc = ev.Value
		}
	}
	dist, distOK := embedDistance(enc, embedRef, set)
	if fired, trigger := driftVerdict(l.opts, zScore, ref != nil, dist, distOK); fired {
		return trigger
	}
	if v := l.reg.Models.Active(); v != nil && v.Value.Feat.ConfigEqual(l.f) && len(set.X) >= l.opts.MinEvalPairs {
		if evalVectors(v.Value, set.X, set.Y).Accuracy < l.opts.MinAccuracy {
			return "accuracy"
		}
	}
	return ""
}

// runCycleLocked executes one cycle; the caller has claimed the running
// slot (claim). The report is stored as the loop's last cycle and returned.
func (l *Loop) runCycleLocked(ctx context.Context, trigger string) *CycleReport {
	start := time.Now()
	rep := &CycleReport{Trigger: trigger, StartedAt: start}
	recs, total := l.source()
	rep.SnapshotSeconds = time.Since(start).Seconds()
	mSnapshotLatency.Observe(rep.SnapshotSeconds)
	rep.Records = len(recs)
	l.cycleBody(ctx, rep, recs, total)
	rep.FinishedAt = time.Now()
	if v := l.reg.Models.Active(); v != nil {
		rep.ActiveVersion = v.ID
	}
	mCycles.Inc()
	mCycleLatency.Observe(rep.FinishedAt.Sub(start).Seconds())

	l.mu.Lock()
	l.cycles++
	rep.Cycle = l.cycles
	l.lastCycle = rep
	l.lastSeen = total
	switch rep.Decision {
	case DecisionPromoted:
		l.promotions++
	case DecisionRejected:
		l.rejections++
	case DecisionRolledBack:
		l.rollbacks++
	}
	l.running = false
	l.mu.Unlock()
	return rep
}

// cycleBody runs the pipeline stages, filling rep.
func (l *Loop) cycleBody(ctx context.Context, rep *CycleReport, recs []expdata.PlanRecord, total int64) {
	o := l.opts
	if err := ctx.Err(); err != nil {
		rep.Decision, rep.Reason = DecisionSkipped, "cancelled: "+err.Error()
		return
	}

	// Stage 0: post-promotion live check. While a promotion awaits
	// confirmation no new challenger trains — promoting on top of an
	// unconfirmed model would make the rollback target ambiguous.
	l.mu.Lock()
	mon := l.monitor
	l.mu.Unlock()
	if mon != nil {
		done := l.liveCheck(rep, recs, total, mon)
		if done {
			return
		}
	}

	// Stage 1: compaction.
	set := Compact(recs, l.f, o)
	rep.Compaction, rep.FeaturizeSeconds = set.Stats, set.FeaturizeSeconds
	l.mu.Lock()
	ref := l.reference
	embedRef := l.embedRef
	l.mu.Unlock()
	if ref != nil {
		rep.Drift = DriftScore(ref, Summarize(set, len(l.f.Channels)))
	}
	if o.embedMode() {
		var enc *embed.Encoder
		if ev := l.reg.Encoders.Active(); ev != nil {
			enc = ev.Value
		}
		if d, ok := embedDistance(enc, embedRef, set); ok {
			rep.EmbedDrift = d
		}
	}

	// Stages 2–4: the min-records skip, split, train challenger,
	// shadow-evaluate.
	var champion *models.Classifier
	active := l.reg.Models.Active()
	if active != nil {
		champion = active.Value
	}
	cycleSeed := l.seedForNextCycle()
	clf := challenge(ctx, rep, set, champion, l.f, o, l.trainFn, cycleSeed)
	if clf == nil {
		return
	}
	if o.DryRun {
		rep.Decision = DecisionRejected
		rep.Reason = "dry run: would promote (" + rep.Reason + ")"
		return
	}

	// Stage 5: guarded promotion — the challenger goes through the same
	// serialize/validate/activate path as an uploaded model.
	var blob bytes.Buffer
	if err := models.SaveClassifier(clf, &blob); err != nil {
		rep.Decision, rep.Reason = DecisionRejected, "serializing challenger: "+err.Error()
		return
	}
	v, err := l.reg.Models.AddAndActivate(blob.Bytes())
	if err != nil {
		rep.Decision, rep.Reason = DecisionRejected, "admitting challenger: "+err.Error()
		return
	}
	rep.ChallengerVersion = v.ID
	rep.Decision = DecisionPromoted
	mPromotions.Inc()
	if o.embedMode() {
		// The embedding side of the promotion: a fresh encoder for the
		// promoted window and its workload embedding as the new reference.
		l.promoteEncoder(rep, set, cycleSeed)
	}

	l.mu.Lock()
	l.reference = Summarize(set, len(l.f.Channels))
	l.monitor = nil
	if active != nil {
		// Only a promotion over a real prior is monitored: with nothing to
		// roll back to, the challenger simply serves.
		l.monitor = &MonitorStatus{
			PromotedVersion: v.ID,
			PriorVersion:    active.ID,
			ShadowAccuracy:  rep.Challenger.Accuracy,
			Watermark:       total,
		}
	}
	l.mu.Unlock()
	if l.keep > 0 {
		pin := []int{}
		if active != nil {
			pin = append(pin, active.ID)
		}
		if _, err := l.reg.Models.Prune(l.keep, pin...); err != nil {
			rep.Reason += "; prune: " + err.Error()
		}
	}
}

// liveCheck measures the promoted challenger's live accuracy on telemetry
// ingested after its promotion. Returns true when the cycle is complete
// (still waiting, or rolled back); false when the promotion was confirmed
// and the cycle should continue into a normal training pass.
func (l *Loop) liveCheck(rep *CycleReport, recs []expdata.PlanRecord, total int64, mon *MonitorStatus) bool {
	fresh := recs
	if n := total - mon.Watermark; n <= 0 {
		fresh = nil
	} else if int64(len(recs)) > n {
		fresh = recs[int64(len(recs))-n:]
	}
	// Compact the post-promotion slice only — an unbounded window here
	// would dilute fresh evidence with the very data the challenger was
	// trained on.
	o := l.opts
	o.Window = -1
	set := Compact(fresh, l.f, o)
	if set.Stats.Pairs < l.opts.RollbackMinPairs {
		rep.Decision = DecisionMonitoring
		rep.Reason = fmt.Sprintf("awaiting live confirmation of v%d: %d labeled pairs of %d needed",
			mon.PromotedVersion, set.Stats.Pairs, l.opts.RollbackMinPairs)
		return true
	}
	active := l.reg.Models.Active()
	if active == nil || active.ID != mon.PromotedVersion || !active.Value.Feat.ConfigEqual(l.f) {
		// The monitored version is no longer serving (manual upload or
		// activation raced us): stand down.
		l.mu.Lock()
		l.monitor = nil
		l.mu.Unlock()
		return false
	}
	live := evalVectors(active.Value, set.X, set.Y)
	rep.Live = live
	mLiveAcc.Set(live.Accuracy)
	if live.Accuracy < mon.ShadowAccuracy-rollbackMargin {
		if err := l.reg.Models.Activate(mon.PriorVersion); err != nil {
			rep.Decision = DecisionRejected
			rep.Reason = fmt.Sprintf("rollback of v%d failed: %v", mon.PromotedVersion, err)
			return true
		}
		rep.Decision = DecisionRolledBack
		rep.Reason = fmt.Sprintf("v%d live accuracy %.3f fell more than %.2f below its shadow accuracy %.3f; restored v%d",
			mon.PromotedVersion, live.Accuracy, rollbackMargin, mon.ShadowAccuracy, mon.PriorVersion)
		mRollbacks.Inc()
		l.mu.Lock()
		l.monitor = nil
		// Both drift references described the rolled-back window.
		l.reference = nil
		l.embedRef = nil
		l.mu.Unlock()
		return true
	}
	// Confirmed: the promotion held up live.
	l.mu.Lock()
	l.monitor = nil
	l.mu.Unlock()
	return false
}

// seedForNextCycle derives the cycle's deterministic seed: same options,
// same cycle ordinal → same split and forest.
func (l *Loop) seedForNextCycle() int64 {
	l.mu.Lock()
	n := l.cycles
	l.mu.Unlock()
	return l.opts.Seed + int64(n)*1000003
}

// trainFunc fits a challenger on training pairs under a cycle's seed.
type trainFunc func(X [][]float64, y []int, seed int64) (*models.Classifier, error)

// forestTrainer returns the challenger constructor of the loop and of
// RunOnce: a fresh random forest over f's pair vectors.
func forestTrainer(f *feat.Featurizer, o Options) trainFunc {
	return func(X [][]float64, y []int, seed int64) (*models.Classifier, error) {
		clf := models.NewClassifier(f, models.RFWorkers(o.Trees, seed, o.TrainParallelism), o.Alpha)
		if err := clf.TrainVectors(X, y); err != nil {
			return nil, err
		}
		return clf, nil
	}
}

// challenge runs stages 2–4 on a compacted set: the min-records skip, the
// template-hash split, challenger training, and champion-vs-challenger
// scoring on the held-out side. It returns the challenger when it earned
// promotion, with rep's reason set and the promotion left to the caller;
// otherwise nil, with rep's decision and reason set. rep's split, score
// and timing fields are filled once the challenger is scored.
func challenge(ctx context.Context, rep *CycleReport, set *LabeledSet, champion *models.Classifier,
	f *feat.Featurizer, o Options, train trainFunc, seed int64) *models.Classifier {
	end := func(decision, reason string) *models.Classifier {
		rep.Decision, rep.Reason = decision, reason
		return nil
	}
	if set.Stats.Used < o.MinRecords {
		return end(DecisionSkipped, fmt.Sprintf("only %d usable records (need %d)", set.Stats.Used, o.MinRecords))
	}
	if err := ctx.Err(); err != nil {
		return end(DecisionSkipped, "cancelled: "+err.Error())
	}
	rng := util.NewRNG(seed).Split("learn")
	trainIdx, evalIdx, err := splitByTemplate(set, evalFrac, rng.Split("split"))
	if err != nil {
		return end(DecisionRejected, err.Error())
	}
	if len(trainIdx) < o.MinTrainPairs || len(evalIdx) < o.MinEvalPairs {
		return end(DecisionRejected, fmt.Sprintf("learn: split too small to judge a challenger (train=%d need %d, eval=%d need %d)",
			len(trainIdx), o.MinTrainPairs, len(evalIdx), o.MinEvalPairs))
	}
	trainX, trainY := set.subset(trainIdx)
	evalX, evalY := set.subset(evalIdx)

	if err := ctx.Err(); err != nil {
		return end(DecisionRejected, "learn: cancelled before training: "+err.Error())
	}
	t0 := time.Now()
	clf, err := train(trainX, trainY, seed)
	if err != nil {
		return end(DecisionRejected, "learn: training challenger: "+err.Error())
	}
	trainSeconds := time.Since(t0).Seconds()
	mFitLatency.Observe(trainSeconds)
	if err := ctx.Err(); err != nil {
		return end(DecisionRejected, "learn: cancelled before evaluation: "+err.Error())
	}

	if !clf.Feat.ConfigEqual(f) {
		return end(DecisionRejected, "learn: challenger featurization differs from the loop's")
	}
	e0 := time.Now()
	challenger := evalVectors(clf, evalX, evalY)
	mChallengerAcc.Set(challenger.Accuracy)
	var champ *EvalReport
	championComparable := champion != nil && champion.Feat.ConfigEqual(f)
	if championComparable {
		champ = evalVectors(champion, evalX, evalY)
		mChampionAcc.Set(champ.Accuracy)
		mEvalDelta.Set(challenger.Accuracy - champ.Accuracy)
	}
	rep.EvalSeconds = time.Since(e0).Seconds()
	mEvalLatency.Observe(rep.EvalSeconds)
	rep.TrainPairs, rep.EvalPairs = len(trainIdx), len(evalIdx)
	rep.Champion, rep.Challenger = champ, challenger
	rep.TrainSeconds = trainSeconds

	switch {
	case challenger.Accuracy < o.MinAccuracy:
		return end(DecisionRejected, fmt.Sprintf("challenger accuracy %.3f below floor %.2f on %d held-out pairs",
			challenger.Accuracy, o.MinAccuracy, len(evalX)))
	case champion == nil:
		rep.Reason = fmt.Sprintf("no champion; challenger accuracy %.3f meets floor %.2f", challenger.Accuracy, o.MinAccuracy)
	case !championComparable:
		rep.Reason = fmt.Sprintf("champion featurization incomparable; challenger accuracy %.3f meets floor %.2f",
			challenger.Accuracy, o.MinAccuracy)
	case challenger.Accuracy >= champ.Accuracy+promoteMargin:
		rep.Reason = fmt.Sprintf("challenger %.3f beats champion %.3f by ≥ %.2f on %d held-out pairs",
			challenger.Accuracy, champ.Accuracy, promoteMargin, len(evalX))
	default:
		return end(DecisionRejected, fmt.Sprintf("challenger %.3f does not beat champion %.3f by margin %.2f",
			challenger.Accuracy, champ.Accuracy, promoteMargin))
	}
	return clf
}

// RunOnce is the registry-free single cycle used by the library facade:
// compact recs, train a challenger, shadow-evaluate it against an optional
// champion, and return the report plus the challenger when it passed the
// promotion gate (nil when rejected).
func RunOnce(recs []expdata.PlanRecord, champion *models.Classifier, o Options) (*CycleReport, *models.Classifier, error) {
	o = o.withDefaults()
	f := o.featurizer()
	rep := &CycleReport{Trigger: "once", StartedAt: time.Now(), Records: len(recs)}
	set := Compact(recs, f, o)
	rep.Compaction, rep.FeaturizeSeconds = set.Stats, set.FeaturizeSeconds
	clf := challenge(context.Background(), rep, set, champion, f, o, forestTrainer(f, o), o.Seed)
	rep.FinishedAt = time.Now()
	if clf != nil {
		rep.Decision = DecisionPromoted
	}
	return rep, clf, nil
}
