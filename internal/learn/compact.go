package learn

import (
	"hash/fnv"
	"math"
	"time"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/obs"
)

// Compaction metric handles (see DESIGN.md §11).
var (
	mCompactRecords = obs.C("learn.compact.records")
	mCompactSkipped = obs.C("learn.compact.skipped")
	mCompactDeduped = obs.C("learn.compact.deduped")
	mCompactPairs   = obs.C("learn.compact.pairs")
	// Featurize phase of the train path (DESIGN.md §15); fit and eval live
	// in loop.go.
	mFeaturizeLatency = obs.H("learn.train.featurize")
)

// CompactStats accounts for every input record of a compaction: records
// are used, skipped (with a reason), or deduplicated — hostile or partial
// telemetry is counted, never panicked on.
type CompactStats struct {
	// Total is the input record count.
	Total int `json:"total"`
	// Used is the number of records surviving validation, dedup, and the
	// recency window.
	Used int `json:"used"`
	// SkippedCost counts records with NaN/∞/negative costs.
	SkippedCost int `json:"skipped_cost,omitempty"`
	// SkippedChannels counts records with missing channels, oversized
	// vectors, or non-finite attributes.
	SkippedChannels int `json:"skipped_channels,omitempty"`
	// Deduped counts records displaced by a fresher duplicate.
	Deduped int `json:"deduped,omitempty"`
	// Windowed counts deduped records dropped by the recency window.
	Windowed int `json:"windowed,omitempty"`
	// Padded counts used records whose channel vectors needed zero-padding.
	Padded int `json:"padded,omitempty"`
	// Templates is the number of distinct template groups among used records.
	Templates int `json:"templates"`
	// Pairs is the number of labeled pairs emitted.
	Pairs int `json:"pairs"`
	// Labels tallies pairs per class (improvement, regression, unsure).
	Labels [expdata.NumLabels]int `json:"labels"`
}

// LabeledSet is compacted telemetry ready for training and evaluation:
// featurized pair vectors, ternary labels, and the template group of each
// pair (for leakage-free splitting).
type LabeledSet struct {
	X      [][]float64
	Y      []int
	Groups []uint64
	// Records are the used records in recency order (the drift baseline is
	// summarized from them).
	Records []compactRecord
	Stats   CompactStats
	// FeaturizeSeconds is the time spent pairing the grouped records:
	// labeling each pair and featurizing its vector.
	FeaturizeSeconds float64
}

// compactRecord is one validated, canonicalized record.
type compactRecord struct {
	rec      *expdata.PlanRecord
	vectors  [][]float64 // per featurizer channel, padded to plan.NumKeys
	template uint64
}

// Compact folds raw telemetry into a labeled training set: each record is
// validated (bad costs and malformed channels are skipped and counted),
// deduplicated by plan identity keeping the freshest measurement, windowed
// to the most recent window records, grouped by (db, query), and paired
// into ordered, α-labeled vectors. Deterministic: records are processed in
// input order and groups emitted in first-seen order.
func Compact(recs []expdata.PlanRecord, f *feat.Featurizer, o Options) *LabeledSet {
	o = o.withDefaults()
	chNames := make([]string, len(f.Channels))
	for i, c := range f.Channels {
		chNames[i] = c.String()
	}
	set := &LabeledSet{}
	set.Stats.Total = len(recs)
	mCompactRecords.Add(int64(len(recs)))

	// Validate + canonicalize, dedup by plan identity (fresher record wins
	// its slot, preserving the older record's position in recency order is
	// NOT wanted: a re-measured plan is fresh evidence, so the record moves
	// to the back).
	type slot struct{ idx int }
	byPlan := map[uint64]slot{}
	var kept []compactRecord
	for i := range recs {
		r := &recs[i]
		if r.CheckCosts() != nil {
			set.Stats.SkippedCost++
			continue
		}
		vs, padded, err := r.ChannelVectors(chNames, plan.NumKeys)
		if err != nil {
			set.Stats.SkippedChannels++
			continue
		}
		if padded {
			set.Stats.Padded++
		}
		cr := compactRecord{rec: r, vectors: vs, template: r.TemplateGroup()}
		key := planKey(r, vs)
		if s, ok := byPlan[key]; ok {
			set.Stats.Deduped++
			kept[s.idx] = compactRecord{} // tombstone; compacted below
		}
		byPlan[key] = slot{idx: len(kept)}
		kept = append(kept, cr)
	}
	live := kept[:0]
	for _, cr := range kept {
		if cr.rec != nil {
			live = append(live, cr)
		}
	}
	// Recency window: keep the newest records.
	if o.Window > 0 && len(live) > o.Window {
		set.Stats.Windowed = len(live) - o.Window
		live = live[len(live)-o.Window:]
	}
	set.Records = live
	set.Stats.Used = len(live)

	// Group by (db, query) in first-seen order and emit ordered pairs.
	type gkey struct{ db, q string }
	groups := map[gkey][]int{}
	var order []gkey
	for i := range live {
		k := gkey{live[i].rec.DB, live[i].rec.Query}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	templates := map[uint64]bool{}
	t0 := time.Now()
	for _, k := range order {
		idxs := groups[k]
		templates[live[idxs[0]].template] = true
		emitted := 0
	pairs:
		for _, i := range idxs {
			for _, j := range idxs {
				if i == j {
					continue
				}
				if emitted >= o.MaxPairsPerTemplate {
					break pairs
				}
				a, b := &live[i], &live[j]
				set.X = append(set.X, f.PairFromVectors(a.vectors, b.vectors, a.rec.EstTotalCost, b.rec.EstTotalCost))
				lbl := expdata.LabelOf(a.rec.Cost, b.rec.Cost, o.Alpha)
				set.Y = append(set.Y, int(lbl))
				set.Groups = append(set.Groups, a.template)
				set.Stats.Labels[lbl]++
				emitted++
			}
		}
	}
	set.FeaturizeSeconds = time.Since(t0).Seconds()
	mFeaturizeLatency.Observe(set.FeaturizeSeconds)
	set.Stats.Templates = len(templates)
	set.Stats.Pairs = len(set.X)
	mCompactSkipped.Add(int64(set.Stats.SkippedCost + set.Stats.SkippedChannels))
	mCompactDeduped.Add(int64(set.Stats.Deduped))
	mCompactPairs.Add(int64(set.Stats.Pairs))
	return set
}

// planKey identifies a plan for deduplication: the plan fingerprint when
// present, else a content hash of the canonicalized channel vectors and the
// estimated cost — so byte-identical duplicate records collapse even when
// the emitter never set a fingerprint.
func planKey(r *expdata.PlanRecord, vs [][]float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.DB))
	h.Write([]byte{0})
	h.Write([]byte(r.Query))
	h.Write([]byte{0})
	if r.Fingerprint != 0 {
		writeU64(h, r.Fingerprint)
		return h.Sum64()
	}
	for _, v := range vs {
		for _, x := range v {
			writeU64(h, math.Float64bits(x))
		}
		h.Write([]byte{0xff})
	}
	writeU64(h, math.Float64bits(r.EstTotalCost))
	return h.Sum64()
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}

// templateOrder returns the distinct template groups of a set in
// first-seen order (deterministic split input).
func (s *LabeledSet) templateOrder() []uint64 {
	seen := map[uint64]bool{}
	var order []uint64
	for _, g := range s.Groups {
		if !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	return order
}
