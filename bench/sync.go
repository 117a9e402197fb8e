package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/util"
	"repro/internal/workload"
)

const (
	whySyncHot  = "every what-if call hits the cache, so it times HTTP, JSON, tenant resolution and classifier inference; Optimize, the tuner and learn are bypassed"
	whySyncMiss = "every request plans at least one unseen index configuration, so it times Optimize and a growing what-if cache, with sync-hot as the same-path control"
)

// Synchronous-plane load. The open-loop rates are frozen at about a fifth
// of the closed-loop saturation throughput measured when the benchmark was
// calibrated, so the timed phase measures latency below saturation. A
// fifth, not half: the CPU speed of the shared two-core host it was
// calibrated on swings by up to 2x over minutes, and half of a fast
// minute's capacity saturates a slow one.
const (
	rateHot  = 2000.0 // req/s
	rateMiss = 300.0  // req/s
	// hotBodies is the hot working set: every body is sent once while
	// warming, so every timed request hits the what-if cache.
	hotBodies = 256
	// checkEvery: every checkEvery-th timed response is re-derived
	// in-process and replayed by the traced run.
	checkEvery = 64
	// The traced run ends with a capacity ladder of at most ladderSteps
	// steps, each a tenth of the timed phase, starting at the fixed rate.
	// A step passes when its p99 stays within the workload's limit. The hot
	// limit is 10 ms, not 2: at half the fixed rate the hot p99 already
	// reads 1.5 ms, from garbage collection and scheduling, not queueing.
	ladderSteps       = 9
	ladderLimitHotMS  = 10.0
	ladderLimitMissMS = 50.0
)

// Request kinds in the mix: 80% single-pair model classify, 10% 4-pair
// batched classify, 10% plan.
const (
	kindClassify = iota
	kindClassify4
	kindPlan
)

// syncReq is one generated request and what it asks, kept for re-deriving
// the daemon's answer in-process.
type syncReq struct {
	kind  int
	path  string
	body  []byte
	q     *query.Query
	pairs [][2][]*catalog.Index // classify: one pair, classify4: four
	cfg   []*catalog.Index      // plan
}

// syncGen draws requests over the served database's queries and their
// candidate indexes. With fresh set it never repeats a (query,
// configuration) it drew before, so every such request misses the cache.
type syncGen struct {
	qs    []*query.Query
	cands map[*query.Query][]*catalog.Index
	rng   *util.RNG
	used  map[string]bool
}

func newSyncGen(w *workload.Workload, rng *util.RNG) *syncGen {
	g := &syncGen{cands: map[*query.Query][]*catalog.Index{}, rng: rng, used: map[string]bool{}}
	for _, q := range w.Queries {
		if cs := candidates.Generate(q, w.Schema, candidates.Limits{}); len(cs) >= 3 {
			g.qs = append(g.qs, q)
			g.cands[q] = cs
		}
	}
	return g
}

func configKey(q *query.Query, cfg []*catalog.Index) string {
	ids := make([]string, len(cfg))
	for i, ix := range cfg {
		ids[i] = ix.ID()
	}
	sort.Strings(ids)
	return q.Name + "|" + strings.Join(ids, ";")
}

// config draws 1–3 of q's candidates; fresh retries until the configuration
// is new (false when q's candidates are exhausted).
func (g *syncGen) config(q *query.Query, fresh bool) ([]*catalog.Index, bool) {
	cs := g.cands[q]
	for attempt := 0; attempt < 64; attempt++ {
		var cfg []*catalog.Index
		for _, i := range g.rng.SampleWithoutReplacement(len(cs), 1+g.rng.Intn(3)) {
			cfg = append(cfg, cs[i])
		}
		key := configKey(q, cfg)
		if fresh && g.used[key] {
			continue
		}
		g.used[key] = true
		return cfg, true
	}
	return nil, false
}

// next draws one request of the mix. Hot requests compare two drawn
// configurations; fresh ones compare the empty configuration with a new one.
func (g *syncGen) next(fresh bool) syncReq {
	for {
		q := g.qs[g.rng.Intn(len(g.qs))]
		r := syncReq{q: q}
		switch u := g.rng.Float64(); {
		case u < 0.8:
			r.kind = kindClassify
		case u < 0.9:
			r.kind = kindClassify4
		default:
			r.kind = kindPlan
		}
		ok := true
		draw := func() []*catalog.Index {
			cfg, got := g.config(q, fresh)
			ok = ok && got
			return cfg
		}
		switch r.kind {
		case kindPlan:
			r.cfg = draw()
		case kindClassify:
			r.pairs = [][2][]*catalog.Index{{nil, draw()}}
		case kindClassify4:
			for i := 0; i < 4; i++ {
				r.pairs = append(r.pairs, [2][]*catalog.Index{nil, draw()})
			}
		}
		if !fresh {
			for i := range r.pairs {
				r.pairs[i][0] = draw()
			}
		}
		if ok {
			r.encode()
			return r
		}
	}
}

func specs(cfg []*catalog.Index) []server.IndexSpec {
	out := make([]server.IndexSpec, len(cfg))
	for i, ix := range cfg {
		out[i] = server.IndexSpec{Table: ix.Table, Kind: "btree", Key: ix.KeyColumns, Include: ix.IncludedColumns}
		if ix.Kind == catalog.Columnstore {
			out[i] = server.IndexSpec{Table: ix.Table, Kind: "columnstore"}
		}
	}
	return out
}

type pairSpec struct {
	A []server.IndexSpec `json:"indexes_a"`
	B []server.IndexSpec `json:"indexes_b"`
}

// encode renders the request body the daemon's API takes.
func (r *syncReq) encode() {
	var v any
	switch r.kind {
	case kindPlan:
		r.path = "/v1/plan"
		v = struct {
			Query   string             `json:"query"`
			Indexes []server.IndexSpec `json:"indexes"`
		}{r.q.Name, specs(r.cfg)}
	case kindClassify:
		r.path = "/v1/classify"
		v = struct {
			Query string `json:"query"`
			pairSpec
		}{r.q.Name, pairSpec{specs(r.pairs[0][0]), specs(r.pairs[0][1])}}
	default:
		r.path = "/v1/classify"
		ps := make([]pairSpec, len(r.pairs))
		for i, p := range r.pairs {
			ps[i] = pairSpec{specs(p[0]), specs(p[1])}
		}
		v = struct {
			Query string     `json:"query"`
			Pairs []pairSpec `json:"pairs"`
		}{r.q.Name, ps}
	}
	r.body, _ = json.Marshal(v) // plain structs of strings: cannot fail
}

// syncAnswer is the union of the plan and classify response fields the
// checks compare.
type syncAnswer struct {
	EstCost  float64 `json:"est_cost"`
	Verdict  string  `json:"verdict"`
	EstCostA float64 `json:"est_cost_a"`
	EstCostB float64 `json:"est_cost_b"`
	Verdicts []struct {
		Verdict  string  `json:"verdict"`
		EstCostA float64 `json:"est_cost_a"`
		EstCostB float64 `json:"est_cost_b"`
	} `json:"verdicts"`
}

// planOf plans q under cfg through wi.
func planOf(wi *opt.WhatIf, q *query.Query, cfg []*catalog.Index) (*plan.Plan, error) {
	return wi.Plan(q, catalog.NewConfiguration(cfg...))
}

// verify re-derives a response in-process on an independent optimizer and
// the same classifier: every estimated cost must carry the same bits and
// every verdict must match.
func (r *syncReq) verify(wi *opt.WhatIf, clf models.Comparator, body []byte) error {
	var got syncAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	same := func(what string, a, b float64) error {
		if math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("%s %s: daemon %v, in-process %v", r.q.Name, what, a, b)
		}
		return nil
	}
	if r.kind == kindPlan {
		p, err := planOf(wi, r.q, r.cfg)
		if err != nil {
			return err
		}
		return same("est_cost", got.EstCost, p.EstTotalCost)
	}
	type verdict struct {
		v      string
		ea, eb float64
	}
	want := make([]verdict, len(r.pairs))
	for i, pr := range r.pairs {
		pa, err := planOf(wi, r.q, pr[0])
		if err != nil {
			return err
		}
		pb, err := planOf(wi, r.q, pr[1])
		if err != nil {
			return err
		}
		want[i] = verdict{clf.Compare(pa, pb).String(), pa.EstTotalCost, pb.EstTotalCost}
	}
	have := []verdict{{got.Verdict, got.EstCostA, got.EstCostB}}
	if r.kind == kindClassify4 {
		have = have[:0]
		for _, v := range got.Verdicts {
			have = append(have, verdict{v.Verdict, v.EstCostA, v.EstCostB})
		}
	}
	if len(have) != len(want) {
		return fmt.Errorf("%s: %d verdicts, want %d", r.q.Name, len(have), len(want))
	}
	for i := range want {
		if have[i].v != want[i].v {
			return fmt.Errorf("%s pair %d: daemon verdict %s, in-process %s", r.q.Name, i, have[i].v, want[i].v)
		}
		if err := same("est_cost_a", have[i].ea, want[i].ea); err != nil {
			return err
		}
		if err := same("est_cost_b", have[i].eb, want[i].eb); err != nil {
			return err
		}
	}
	return nil
}

// send issues r on c and requires a 200, returning the body.
func (r *syncReq) send(c *client) ([]byte, error) {
	code, body, err := c.do("POST", r.path, r.body)
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("%s: status %d: %s", r.path, code, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func runSyncHot(e *env) (*outcome, error)  { return runSync(e, "sync-hot", false) }
func runSyncMiss(e *env) (*outcome, error) { return runSync(e, "sync-miss", true) }

// syncState is one set-up of a sync workload: the daemon, the timed phase's
// requests in due order, and the generator that drew them.
type syncState struct {
	fx   *fixture
	d    *daemon
	reqs []*syncReq
	gen  *syncGen
}

func runSync(e *env, name string, miss bool) (*outcome, error) {
	rate := rateHot
	if miss {
		rate = rateMiss
	}
	n := int(rate * e.seconds)
	build := func(parent int64) (*syncState, error) {
		fx, err := buildFixture(e.tr, parent, e.scale, false)
		if err != nil {
			return nil, err
		}
		sp := e.tr.start("setup.server", parent, "")
		d, err := startDaemon(fx, nil)
		if err != nil {
			return nil, err
		}
		if err := d.upload(fx, ""); err != nil {
			d.stop()
			return nil, err
		}
		sp.end()
		sp = e.tr.start("setup.warmup", parent, "")
		defer sp.end()
		gen := newSyncGen(fx.w, util.NewRNG(e.seed).Split(name))
		hot := make([]*syncReq, hotBodies)
		for i := range hot {
			r := gen.next(false)
			if _, err := r.send(d.cl); err != nil {
				d.stop()
				return nil, fmt.Errorf("warming: %w", err)
			}
			hot[i] = &r
		}
		st := &syncState{fx: fx, d: d, reqs: make([]*syncReq, n), gen: gen}
		for i := range st.reqs {
			if miss {
				r := gen.next(true)
				st.reqs[i] = &r
			} else {
				st.reqs[i] = hot[gen.rng.Intn(hotBodies)]
			}
		}
		return st, nil
	}
	st, setupS, err := timeSetups(e, build, func(s *syncState) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.d.stop()
	o := newOutcome()
	o.e2e["setup_s"] = setupS

	// Timed phase: open loop at the fixed rate, latency from each request's
	// due time. A traced run records a client span on every other request,
	// so its two halves give the tracing overhead.
	before := obs.TakeSnapshot()
	bodies := make([][]byte, n)
	phase := e.tr.start("phase.fixed_rate", 0, "")
	start := time.Now().Add(5 * time.Millisecond)
	samples := openLoop(maxInflight, start, rate, n, start.Add(time.Duration((e.seconds+1)*float64(time.Second))), func(i int) error {
		var sp active
		if i%2 == 0 {
			sp = e.tr.start("client.request", phase.id, fmt.Sprintf("r%d", i))
		}
		body, err := st.reqs[i].send(st.d.cl)
		sp.end()
		if i%checkEvery == 0 {
			bodies[i] = body
		}
		return err
	})
	phase.end()
	delta := obsSince(before)
	o.e2e["heap_mb"] = liveHeapMB()
	lat := make([]float64, n)
	var fromSent, traced, untraced, late []float64
	for i, s := range samples {
		lat[i] = s.latencyMS()
		late = append(late, s.latenessMS())
		if s.err != nil {
			o.failed++
			continue
		}
		fromSent = append(fromSent, float64(s.done.Sub(s.sent))/1e6)
		if i%2 == 0 {
			traced = append(traced, lat[i])
		} else {
			untraced = append(untraced, lat[i])
		}
	}
	o.attempted += n
	o.e2e["p50_ms"] = capInf(quantile(sortedCopy(lat), 0.5))
	calls, hits := st.d.wi.Stats()
	o.note("%.0f req/s for %gs, latency from due time %s, lateness p99=%.3fms; what-if cache: %d calls, %d hits",
		rate, e.seconds, tailNote(lat), quantile(sortedCopy(late), 0.99), calls, hits)

	// Output checks: every checkEvery-th response, re-derived on an
	// independent optimizer with the same classifier.
	wi := st.fx.newWhatIf()
	var checked, bad int
	var firstErr error
	for i := 0; i < n; i += checkEvery {
		if samples[i].err != nil {
			continue
		}
		checked++
		if err := st.reqs[i].verify(wi, st.fx.clf, bodies[i]); err != nil {
			bad++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	o.check("responses re-derived", bad == 0 && checked > 0, "%d of %d sampled responses match (first mismatch: %v)", checked-bad, checked, firstErr)

	if e.traced() {
		syncLayers(e, o, st, delta, fromSent, late, traced, untraced, bodies)
		ladder(e, o, st, rate, miss)
	}
	return o, nil
}

// ladder runs the capacity ladder of a traced sync run, starting at the
// fixed rate. Its steps send the hot bodies again (sync-hot) or new
// configurations (sync-miss), untraced, and are not counted in the run's
// operations.
func ladder(e *env, o *outcome, st *syncState, from float64, miss bool) {
	limitMS := ladderLimitHotMS
	if miss {
		limitMS = ladderLimitMissMS
	}
	stepDur := time.Duration(e.seconds / 10 * float64(time.Second))
	capRPS, steps := capacityLadder(from, limitMS, ladderSteps, func(rate float64) []sample {
		reqs := make([]*syncReq, int(rate*stepDur.Seconds()))
		for i := range reqs {
			if miss {
				r := st.gen.next(true)
				reqs[i] = &r
			} else {
				reqs[i] = st.reqs[i%len(st.reqs)]
			}
		}
		start := time.Now().Add(5 * time.Millisecond)
		return openLoop(maxInflight, start, rate, len(reqs), start.Add(stepDur+stepDur/10), func(i int) error {
			_, err := reqs[i].send(st.d.cl)
			return err
		})
	})
	var desc []string
	for _, s := range steps {
		desc = append(desc, fmt.Sprintf("%.0f:p99=%.2fms,%.1f%%,ok=%v", s.rate, s.p99MS, 100*s.completed, s.ok))
	}
	o.note("capacity ladder (p99 limit %gms, %v steps): %.0f req/s; %s", limitMS, stepDur, capRPS, strings.Join(desc, " "))
	o.layer["server.capacity_rps"] = capRPS
}

// capInf reports a percentile that failures pushed to +Inf as the client's
// request timeout, in ms, so the result line stays valid JSON.
func capInf(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return 60000
	}
	return v
}

// syncLayers fills the per-layer metrics of a traced sync run: server and
// opt numbers from the obs deltas of the fixed-rate phase, and model and
// featurizer costs from replaying the checked requests in-process.
func syncLayers(e *env, o *outcome, st *syncState, d obsDelta, fromSent, late, traced, untraced []float64, bodies [][]byte) {
	handler := d.histQuantile("server.http.latency", 0.5) * 1e3
	o.layer["server.handler_p50_ms"] = handler
	o.layer["server.transport_p50_ms"] = quantile(sortedCopy(fromSent), 0.5) - handler
	optLayers(o, d, false)
	o.layer["gen.lateness_p99_ms"] = quantile(sortedCopy(late), 0.99)
	o.layer["obs.trace_overhead"] = ratio(median(traced), median(untraced))

	// Replay: for every checked request, call the what-if facade, the
	// classifier and the featurizer directly, each under its own span.
	var gt gateTimer
	cmp := timeComparator(st.fx.clf, &gt)
	f := feat.Default()
	var pairNS, pairs int64
	for i := 0; i < len(st.reqs); i += checkEvery {
		r := st.reqs[i]
		if r.kind == kindPlan || bodies[i] == nil {
			continue
		}
		root := e.tr.start("replay.request", 0, fmt.Sprintf("r%d", i))
		for _, pr := range r.pairs {
			sp := e.tr.start("opt.whatif.plan", root.id, root.req)
			pa, errA := planOf(st.d.wi, r.q, pr[0])
			pb, errB := planOf(st.d.wi, r.q, pr[1])
			sp.end()
			if errA != nil || errB != nil {
				continue
			}
			sp = e.tr.start("models.compare", root.id, root.req)
			cmp.Compare(pa, pb)
			sp.end()
			sp = e.tr.start("feat.pair", root.id, root.req)
			t0 := time.Now()
			f.Pair(pa, pb)
			pairNS += int64(time.Since(t0))
			pairs++
			sp.end()
		}
		root.end()
	}
	gateLayers(o, &gt)
	o.layer["feat.pair_us"] = ratio(float64(pairNS)/1e3, float64(pairs))
}

// optLayers fills the what-if and Optimize metrics from an obs delta. The
// memo gauges hold one optimizer's running totals, so their delta is
// meaningful only when that optimizer planned before the phase too; a
// fresh optimizer's totals are read whole.
func optLayers(o *outcome, d obsDelta, freshOptimizer bool) {
	hits, misses, waits := d.counter("whatif.cache.hit"), d.counter("whatif.cache.miss"), d.counter("whatif.cache.wait")
	calls := hits + misses + waits
	o.layer["opt.whatif_calls"] = calls
	o.layer["opt.whatif_misses"] = misses
	o.layer["opt.whatif_hit_ratio"] = ratio(hits+waits, calls)
	o.layer["opt.optimize_busy_s"] = d.histSum("whatif.probe.latency")
	o.layer["opt.optimize_p50_us"] = d.histQuantile("whatif.probe.latency", 0.5) * 1e6
	o.layer["opt.optimize_p99_us"] = d.histQuantile("whatif.probe.latency", 0.99) * 1e6
	o.layer["opt.whatif_entries"] = d.gaugeDelta("whatif.cache.entries")
	g := d.gaugeDelta
	if freshOptimizer {
		g = d.gauge
	}
	mh, mm := g("opt.memo.hit"), g("opt.memo.miss")
	o.layer["opt.memo_hit_ratio"] = ratio(mh, mh+mm)
	jh, jm := g("opt.jmemo.hit"), g("opt.jmemo.miss")
	o.layer["opt.jmemo_hit_ratio"] = ratio(jh, jh+jm)
}
