// Package expdata implements the execution-data collection pipeline of the
// paper's experimental setup (§7.3): for every query it derives candidate
// index configurations from tuner recommendations, obtains what-if plans,
// deduplicates by plan fingerprint, executes each distinct plan, and labels
// it with the median measured cost over several runs. It also provides the
// train/test split modes (Pair, Plan, Query, Database) and the plan-leaking
// machinery used in §7.7–7.8.
package expdata

import (
	"fmt"
	"sort"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/util"
	"repro/internal/workload"
)

// Label is the ternary class of a plan pair (P1, P2): whether P2 regresses,
// improves, or is not significantly different from P1 (§2.2).
type Label int

// Pair labels.
const (
	Improvement Label = iota
	Regression
	Unsure
)

// NumLabels is the number of classes.
const NumLabels = 3

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case Improvement:
		return "improvement"
	case Regression:
		return "regression"
	case Unsure:
		return "unsure"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// DefaultAlpha is the significance threshold α of §2.2.
const DefaultAlpha = 0.2

// LabelOf labels pair (P1, P2) by execution cost: Regression when
// cost2 > (1+α)·cost1, Improvement when cost2 < (1−α)·cost1, else Unsure.
func LabelOf(cost1, cost2, alpha float64) Label {
	switch {
	case cost2 > (1+alpha)*cost1:
		return Regression
	case cost2 < (1-alpha)*cost1:
		return Improvement
	default:
		return Unsure
	}
}

// ExecutedPlan is one distinct executed plan of a query.
type ExecutedPlan struct {
	DB    string
	Query *query.Query
	// Plan carries the optimizer's estimates (the only information
	// available at inference time).
	Plan *plan.Plan
	// Actuals are the per-operator actual rows and costs of one execution,
	// in the pre-order of Plan.Root.Walk: the supervision production
	// telemetry exposes, used by the operator-level regressor baseline.
	// Nil when the plan's operators were never measured.
	Actuals []exec.Actual
	// Cost is the median measured execution cost (the label source).
	Cost float64
	// Configs lists fingerprints of configurations that produced this plan.
	Configs []string
}

// Pair is an ordered plan pair (P1, P2) of the same query.
type Pair struct {
	P1, P2 *ExecutedPlan
}

// DB returns the database the pair belongs to.
func (p Pair) DB() string { return p.P1.DB }

// QueryName returns the query the two plans belong to.
func (p Pair) QueryName() string { return p.P1.Query.Name }

// Label labels the pair at significance threshold alpha.
func (p Pair) Label(alpha float64) Label { return LabelOf(p.P1.Cost, p.P2.Cost, alpha) }

// Dataset is the execution data of one database.
type Dataset struct {
	DB      string
	Plans   []*ExecutedPlan
	byQuery map[string][]*ExecutedPlan
}

// PlansOf returns the distinct executed plans of one query.
func (d *Dataset) PlansOf(queryName string) []*ExecutedPlan { return d.byQuery[queryName] }

// QueryNames returns the query names with at least one executed plan,
// sorted.
func (d *Dataset) QueryNames() []string {
	names := make([]string, 0, len(d.byQuery))
	for n := range d.byQuery {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MaxPlansPerQuery returns the largest distinct-plan count of any query.
func (d *Dataset) MaxPlansPerQuery() int {
	m := 0
	for _, ps := range d.byQuery {
		if len(ps) > m {
			m = len(ps)
		}
	}
	return m
}

// CollectOpts configures execution-data collection.
type CollectOpts struct {
	// Seed drives configuration sampling and measurement noise.
	Seed int64
	// MaxConfigsPerQuery bounds the hypothetical configurations probed per
	// query per initial configuration (default 14).
	MaxConfigsPerQuery int
	// ExecRepeats is the number of executions whose median labels a plan
	// (default 3).
	ExecRepeats int
	// ProductionMode emulates the Appendix A.1 telemetry setting:
	// passively observed executions under concurrency (higher measurement
	// noise), fewer configurations, single executions.
	ProductionMode bool
	// StatsSampleSize/StatsBuckets configure optimizer statistics.
	StatsSampleSize int
	StatsBuckets    int
}

func (o CollectOpts) withDefaults() CollectOpts {
	if o.MaxConfigsPerQuery == 0 {
		o.MaxConfigsPerQuery = 14
	}
	if o.ExecRepeats == 0 {
		o.ExecRepeats = 3
	}
	if o.StatsSampleSize == 0 {
		// Real optimizers sample a tiny fraction of large tables; a small
		// default keeps cardinality-estimation error (the database- and
		// query-specific error source) significant at reproduction scale.
		o.StatsSampleSize = 256
	}
	if o.StatsBuckets == 0 {
		o.StatsBuckets = 16
	}
	if o.ProductionMode {
		o.ExecRepeats = 1
		if o.MaxConfigsPerQuery > 8 {
			o.MaxConfigsPerQuery = 8
		}
	}
	return o
}

// InitialNone returns the empty configuration.
func InitialNone() *catalog.Configuration { return catalog.NewConfiguration() }

// InitialBTree returns per-table single-column B+ tree indexes on each
// table's first (key) column — the "with B+ tree indexes" starting point.
func InitialBTree(s *catalog.Schema) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, tn := range s.TableNames() {
		t := s.Table(tn)
		if len(t.Columns) > 0 {
			cfg.Add(&catalog.Index{Table: tn, KeyColumns: []string{t.Columns[0].Name}})
		}
	}
	return cfg
}

// InitialColumnstore returns clustered columnstore indexes on every table
// with at least minRows rows.
func InitialColumnstore(s *catalog.Schema, minRows int64) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, tn := range s.TableNames() {
		if s.Table(tn).Rows >= minRows {
			cfg.Add(&catalog.Index{Table: tn, Kind: catalog.Columnstore})
		}
	}
	return cfg
}

// Collect gathers execution data for one workload.
func Collect(w *workload.Workload, o CollectOpts) (*Dataset, error) {
	o = o.withDefaults()
	rng := util.NewRNG(o.Seed).Split("collect:" + w.Name)
	ds := stats.BuildDatabaseStats(w.DB, rng.Split("stats"), o.StatsSampleSize, o.StatsBuckets)
	optimizer := opt.New(w.Schema, ds)
	whatif := opt.NewWhatIf(optimizer)
	ex := exec.New(w.DB)
	if o.ProductionMode {
		ex.NoiseSigma = 0.25 // concurrent production executions are noisier
	}

	// Explore from no index, per-table B+ tree key indexes and columnstores.
	initials := []*catalog.Configuration{
		InitialNone(),
		InitialBTree(w.Schema),
		InitialColumnstore(w.Schema, 1000),
	}

	out := &Dataset{DB: w.Name, byQuery: map[string][]*ExecutedPlan{}}
	for _, q := range w.Queries {
		cands := candidates.CandidateIndexes(q, w.Schema)
		qrng := rng.Split("q:" + q.Name)
		seenPlans := map[uint64]*ExecutedPlan{}
		for _, init := range initials {
			for _, cfg := range enumerateConfigs(init, cands, o, qrng) {
				p, err := whatif.Plan(q, cfg)
				if err != nil {
					return nil, fmt.Errorf("expdata: %s/%s: %w", w.Name, q.Name, err)
				}
				fp := p.Fingerprint()
				if ep, ok := seenPlans[fp]; ok {
					ep.Configs = append(ep.Configs, cfg.Fingerprint())
					continue
				}
				erng := qrng.Split(fmt.Sprintf("exec:%x", fp))
				cost, first, err := ex.MedianCost(p, erng, o.ExecRepeats)
				if err != nil {
					// Catastrophic plans (blow the intermediate-row guard)
					// are skipped, like timed-out executions in practice.
					continue
				}
				ep := &ExecutedPlan{
					DB: w.Name, Query: q, Plan: p, Actuals: first.Actuals,
					Cost: cost, Configs: []string{cfg.Fingerprint()},
				}
				seenPlans[fp] = ep
				out.Plans = append(out.Plans, ep)
				out.byQuery[q.Name] = append(out.byQuery[q.Name], ep)
			}
		}
	}
	return out, nil
}

// enumerateConfigs yields the initial configuration, every single-candidate
// extension, and random small subsets, capped at MaxConfigsPerQuery.
func enumerateConfigs(init *catalog.Configuration, cands []*catalog.Index, o CollectOpts, rng *util.RNG) []*catalog.Configuration {
	out := []*catalog.Configuration{init}
	for _, c := range cands {
		cfg := init.Clone().Add(c)
		out = append(out, cfg)
		if len(out) >= o.MaxConfigsPerQuery {
			return out
		}
	}
	// Random subsets of 2 or 3 candidates.
	for attempts := 0; len(out) < o.MaxConfigsPerQuery && attempts < 4*o.MaxConfigsPerQuery; attempts++ {
		size := 2 + rng.Intn(2)
		if size > len(cands) {
			break
		}
		cfg := init.Clone()
		for _, i := range rng.SampleWithoutReplacement(len(cands), size) {
			cfg.Add(cands[i])
		}
		dup := false
		for _, existing := range out {
			if existing.Fingerprint() == cfg.Fingerprint() {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cfg)
		}
	}
	return out
}

// Pairs builds ordered plan pairs per query, capped by maxPerQuery.
func (d *Dataset) Pairs(maxPerQuery int, rng *util.RNG) []Pair {
	var out []Pair
	for _, qn := range d.QueryNames() {
		plans := d.byQuery[qn]
		out = append(out, pairsAmong(plans, maxPerQuery, rng)...)
	}
	return out
}

// pairsAmong emits up to max ordered pairs among the given plans.
func pairsAmong(plans []*ExecutedPlan, max int, rng *util.RNG) []Pair {
	n := len(plans)
	if n < 2 {
		return nil
	}
	total := n * (n - 1)
	if max <= 0 || total <= max {
		out := make([]Pair, 0, total)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					out = append(out, Pair{P1: plans[i], P2: plans[j]})
				}
			}
		}
		return out
	}
	// Sample without replacement from the index space of ordered pairs.
	out := make([]Pair, 0, max)
	for _, k := range rng.SampleWithoutReplacement(total, max) {
		i := k / (n - 1)
		j := k % (n - 1)
		if j >= i {
			j++
		}
		out = append(out, Pair{P1: plans[i], P2: plans[j]})
	}
	return out
}

// Corpus is execution data across several databases.
type Corpus struct {
	Sets []*Dataset
}

// Set returns the dataset of the named database, or nil.
func (c *Corpus) Set(db string) *Dataset {
	for _, s := range c.Sets {
		if s.DB == db {
			return s
		}
	}
	return nil
}

// CollectCorpus collects execution data for every workload.
func CollectCorpus(ws []*workload.Workload, o CollectOpts) (*Corpus, error) {
	c := &Corpus{}
	for _, w := range ws {
		ds, err := Collect(w, o)
		if err != nil {
			return nil, err
		}
		c.Sets = append(c.Sets, ds)
	}
	return c, nil
}

// AllPairs concatenates pairs from every dataset.
func (c *Corpus) AllPairs(maxPerQuery int, rng *util.RNG) []Pair {
	var out []Pair
	for _, s := range c.Sets {
		out = append(out, s.Pairs(maxPerQuery, rng.Split("pairs:"+s.DB))...)
	}
	return out
}

// NewDataset creates an empty dataset for incremental collection (the
// continuous tuner adds executed plans as configurations are implemented).
func NewDataset(db string) *Dataset {
	return &Dataset{DB: db, byQuery: map[string][]*ExecutedPlan{}}
}

// Add inserts an executed plan, deduplicating by (query, plan fingerprint).
// It reports whether the plan was new.
func (d *Dataset) Add(ep *ExecutedPlan) bool {
	fp := ep.Plan.Fingerprint()
	for _, existing := range d.byQuery[ep.Query.Name] {
		if existing.Plan.Fingerprint() == fp {
			return false
		}
	}
	d.Plans = append(d.Plans, ep)
	d.byQuery[ep.Query.Name] = append(d.byQuery[ep.Query.Name], ep)
	return true
}
