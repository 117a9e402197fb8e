package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/embed"
	"repro/internal/feat"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/util"
)

const whyLearn = "a closed-loop writer ingests telemetry and waits out learn cycles across 8 disk-backed tenants with 4 resident, beside a 200 req/s classify reader; the tuner is bypassed"

// The learn workload's daemon settings and traffic.
const (
	learnTenants = 8
	learnActive  = 4
	learnKeep    = 3
	learnSegment = 256 << 10
	// batchRecords plan records go into every telemetry post.
	batchRecords = 200
	// readerRate is the open-loop rate of the classify reader, which
	// always targets the tenant the writer is training.
	readerRate   = 200.0
	readerBodies = 64
	// digestCycles is how many leading writer cycles the decision digest
	// covers: every run completes them before any tenant switches source,
	// so the digest repeats exactly under a seed.
	digestCycles = 8
	zipfSkew     = 1.1
	// heapEvery: the live heap is sampled after every heapEvery-th writer
	// cycle and heap_mb is their median. Which tenants are resident, and
	// how much telemetry each holds, changes from cycle to cycle, so one
	// sample at the end of the phase swings with the last few tenants drawn.
	heapEvery = 4
)

// learnState is one set-up of the learn workload.
type learnState struct {
	fx      *fixture
	d       *daemon
	dir     string
	tenants []string
	// lines holds every source database's records as JSON lines.
	lines  map[string][][]byte
	reader []*syncReq
	// mirror is the client's copy of the daemon's resident-tenant LRU.
	mirror *lruMirror
}

// lruMirror mirrors the daemon's least-recently-used resident tenant set so
// the client can tag a request as resident or as paying a reload.
type lruMirror struct {
	max int
	ids []string // least recent first
}

// touch records a request to id and reports whether id was resident.
func (m *lruMirror) touch(id string) bool {
	resident := false
	for i, x := range m.ids {
		if x == id {
			m.ids = append(m.ids[:i], m.ids[i+1:]...)
			resident = true
			break
		}
	}
	m.ids = append(m.ids, id)
	if len(m.ids) > m.max {
		m.ids = m.ids[1:]
	}
	return resident
}

func tenantPath(t, path string) string { return "/v1/t/" + t + strings.TrimPrefix(path, "/v1") }

// cycleObs is one writer iteration as the client saw it.
type cycleObs struct {
	tenant   string
	source   string
	ingest   time.Duration
	resident bool
	cycle    time.Duration
	report   *learn.CycleReport
}

func buildLearn(e *env, parent int64) (*learnState, error) {
	fx, err := buildFixture(e.tr, parent, e.scale, true)
	if err != nil {
		return nil, err
	}
	st := &learnState{fx: fx, lines: map[string][][]byte{}, mirror: &lruMirror{max: learnActive}}
	for db, recs := range fx.telemetry {
		for i := range recs {
			line, err := json.Marshal(&recs[i])
			if err != nil {
				return nil, err
			}
			st.lines[db] = append(st.lines[db], line)
		}
	}
	if st.dir, err = os.MkdirTemp(e.scratch, "tenants-"); err != nil {
		return nil, err
	}
	sp := e.tr.start("setup.server", parent, "")
	st.d, err = startDaemon(fx, func(c *server.Config) {
		c.TenantsDir = st.dir
		c.MaxActiveTenants = learnActive
		c.RegistryKeep = learnKeep
		c.TelemetrySegmentBytes = learnSegment
		c.Learn = learn.Options{Seed: modelSeed, DriftMode: learn.DriftModeBoth}
	})
	if err != nil {
		return nil, err
	}
	st.mirror.touch("default")
	for i := 0; i < learnTenants; i++ {
		t := fmt.Sprintf("t%d", i)
		st.tenants = append(st.tenants, t)
		if err := st.d.upload(fx, t); err != nil {
			st.close()
			return nil, err
		}
		st.mirror.touch(t)
	}
	sp.end()
	sp = e.tr.start("setup.warmup", parent, "")
	defer sp.end()
	gen := newSyncGen(fx.w, util.NewRNG(e.seed).Split("learn-reader"))
	for len(st.reader) < readerBodies {
		r := gen.next(false)
		if r.kind != kindClassify {
			continue
		}
		if _, err := r.sendTo(st.d.cl, st.tenants[0]); err != nil {
			st.close()
			return nil, fmt.Errorf("warming: %w", err)
		}
		st.reader = append(st.reader, &r)
	}
	st.mirror.touch(st.tenants[0])
	return st, nil
}

func (st *learnState) close() {
	st.d.stop()
	os.RemoveAll(st.dir)
}

// sendTo issues r against tenant t.
func (r *syncReq) sendTo(c *client, t string) ([]byte, error) {
	tr := *r
	tr.path = tenantPath(t, r.path)
	return tr.send(c)
}

func runLearn(e *env) (*outcome, error) {
	st, setupS, err := timeSetups(e, func(parent int64) (*learnState, error) { return buildLearn(e, parent) }, (*learnState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	o := newOutcome()
	o.e2e["setup_s"] = setupS

	// The writer's plan: seed-drawn tenant popularity (Zipf over a
	// permutation of the tenants), and at half time the two most popular
	// tenants switch to another source database. Sources go round-robin by
	// popularity rank, so every seed gives the same mix of work and only
	// the tenants and records differ.
	rng := util.NewRNG(e.seed).Split("learn")
	rank := rng.Perm(learnTenants)
	zipf := util.NewZipf(rng.Split("zipf"), zipfSkew, learnTenants)
	source := map[string]string{}
	for r, i := range rank {
		source[st.tenants[i]] = st.fx.sources[r%len(st.fx.sources)]
	}

	before := obs.TakeSnapshot()
	deadline := e.deadline(1)
	half := e.deadline(0.5)
	var cur atomic.Pointer[string]
	cur.Store(&st.tenants[0])

	// Reader: one goroutine, open loop, always on the tenant being trained.
	n := int(readerRate * e.seconds)
	readerDone := make(chan []sample, 1)
	start := time.Now().Add(5 * time.Millisecond)
	pick := rng.Split("reader")
	bodyOf := make([]int, n)
	for i := range bodyOf {
		bodyOf[i] = pick.Intn(len(st.reader))
	}
	go func() {
		readerDone <- openLoop(1, start, readerRate, n, deadline.Add(time.Second), func(i int) error {
			var sp active
			if i%2 == 0 {
				sp = e.tr.start("client.classify", 0, fmt.Sprintf("r%d", i))
			}
			_, err := st.reader[bodyOf[i]].sendTo(st.d.cl, *cur.Load())
			sp.end()
			return err
		})
	}()

	// Writer: closed loop of ingest → trigger → wait for idle.
	var cycles []*cycleObs
	var writeErr error
	triggered := map[string]int{}
	switched := -1
	var iterS, heaps []float64
	for it := 0; time.Now().Before(deadline); it++ {
		if switched < 0 && time.Now().After(half) {
			for r, i := range rank[:2] {
				source[st.tenants[i]] = st.fx.sources[(r+1)%len(st.fx.sources)]
			}
			switched = it
		}
		t := st.tenants[rank[zipf.Next()-1]]
		cur.Store(&t)
		c := &cycleObs{tenant: t, source: source[t]}
		var body bytes.Buffer
		for _, i := range rng.SampleWithoutReplacement(len(st.lines[c.source]), batchRecords) {
			body.Write(st.lines[c.source][i])
			body.WriteByte('\n')
		}
		itStart := time.Now()
		sp := e.tr.start("writer.cycle", 0, fmt.Sprintf("w%d", it))
		if writeErr = writerCycle(e, st, c, body.Bytes(), sp.id); writeErr != nil {
			break
		}
		sp.end()
		iterS = append(iterS, time.Since(itStart).Seconds())
		triggered[t]++
		cycles = append(cycles, c)
		if len(cycles)%heapEvery == 0 {
			heaps = append(heaps, liveHeapMB())
		}
	}
	samples := <-readerDone
	delta := obsSince(before)
	o.e2e["heap_mb"] = median(append(heaps, liveHeapMB()))
	if writeErr != nil {
		o.failed++
		o.note("writer failed: %v", writeErr)
	}

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
	o.attempted += n + len(cycles)
	var cycleMS, ingestMS []float64
	for _, c := range cycles {
		cycleMS = append(cycleMS, c.cycle.Seconds()*1e3)
		ingestMS = append(ingestMS, c.ingest.Seconds()*1e3)
	}
	o.e2e["p50_ms"] = capInf(median(cycleMS))
	o.note("reader at %.0f req/s, latency from due time %s", readerRate, tailNote(lat))
	o.note("writer: %d cycles (source switch before cycle %d), %.0f records/s; cycle %s, ingest %s",
		len(cycles), switched, batchRecords/median(iterS), tailNote(cycleMS), tailNote(ingestMS))
	checkLearn(o, st, cycles, triggered)

	if e.traced() {
		learnLayers(e, o, st, cycles, delta, fromSent, late, traced, untraced)
	}
	return o, nil
}

// writerCycle posts one batch to c.tenant, triggers a learn cycle, and
// waits until the tenant is idle again.
func writerCycle(e *env, st *learnState, c *cycleObs, body []byte, parent int64) error {
	cl := st.d.cl
	sp := e.tr.start("client.ingest", parent, c.tenant)
	t0 := time.Now()
	err := cl.call("POST", tenantPath(c.tenant, "/v1/telemetry"), body, 200, nil)
	c.ingest = time.Since(t0)
	c.resident = st.mirror.touch(c.tenant)
	sp.end()
	if err != nil {
		return err
	}
	var prev learn.Status
	if err := cl.call("GET", tenantPath(c.tenant, "/v1/learn/status"), nil, 200, &prev); err != nil {
		return err
	}
	sp = e.tr.start("client.trigger", parent, c.tenant)
	trig := time.Now()
	err = cl.call("POST", tenantPath(c.tenant, "/v1/learn/trigger"), []byte(`{"reason":"bench"}`), 202, nil)
	sp.end()
	if err != nil {
		return err
	}
	sp = e.tr.start("client.wait_idle", parent, c.tenant)
	defer sp.end()
	for wait := time.Millisecond; ; wait = min(2*wait, 20*time.Millisecond) {
		time.Sleep(wait)
		var now learn.Status
		if err := cl.call("GET", tenantPath(c.tenant, "/v1/learn/status"), nil, 200, &now); err != nil {
			return err
		}
		if now.State == "idle" && now.Cycles > prev.Cycles && now.LastCycle != nil {
			c.report = now.LastCycle
			c.cycle = now.LastCycle.FinishedAt.Sub(trig)
			// The daemon's phase times, laid end to end from the cycle's
			// start: their order and gaps are not reported, their lengths are.
			r := now.LastCycle
			cyc := e.tr.record("learn.cycle", parent, c.tenant, r.StartedAt, r.FinishedAt)
			at := r.StartedAt
			for _, ph := range []struct {
				name string
				s    float64
			}{{"learn.featurize", r.FeaturizeSeconds}, {"learn.fit", r.TrainSeconds}, {"learn.eval", r.EvalSeconds}} {
				end := at.Add(time.Duration(ph.s * float64(time.Second)))
				e.tr.record(ph.name, cyc, c.tenant, at, end)
				at = end
			}
			return nil
		}
	}
}

// checkLearn runs the learn workload's output checks: every tenant's loop
// accounts for every cycle the writer triggered as exactly one decision,
// its counters agree with the decisions the writer saw, and its active
// model serves classify. It prints the digest of the decision sequence.
func checkLearn(o *outcome, st *learnState, cycles []*cycleObs, triggered map[string]int) {
	decisions := map[string]map[string]int{}
	h := sha256.New()
	for i, c := range cycles {
		if decisions[c.tenant] == nil {
			decisions[c.tenant] = map[string]int{}
		}
		decisions[c.tenant][c.report.Decision]++
		if i < digestCycles {
			fmt.Fprintf(h, "%s:%s\n", c.tenant, c.report.Decision)
		}
	}
	o.note("decision digest of the first %d cycles: %x", min(digestCycles, len(cycles)), h.Sum(nil)[:8])
	var bad []string
	for _, t := range st.tenants {
		var s learn.Status
		if err := st.d.cl.call("GET", tenantPath(t, "/v1/learn/status"), nil, 200, &s); err != nil {
			bad = append(bad, err.Error())
			continue
		}
		d := decisions[t]
		sum := d[learn.DecisionPromoted] + d[learn.DecisionRejected] + d[learn.DecisionRolledBack] + d[learn.DecisionSkipped] + d[learn.DecisionMonitoring]
		if s.Cycles != triggered[t] || s.Cycles != sum || s.Promotions != d[learn.DecisionPromoted] ||
			s.Rejections != d[learn.DecisionRejected] || s.Rollbacks != d[learn.DecisionRolledBack] {
			bad = append(bad, fmt.Sprintf("%s: status %d cycles (%d promoted, %d rejected, %d rolled back), writer saw %d triggers and %v",
				t, s.Cycles, s.Promotions, s.Rejections, s.Rollbacks, triggered[t], d))
		}
		body, err := st.reader[0].sendTo(st.d.cl, t)
		var got struct {
			ModelVersion int `json:"model_version"`
		}
		if err == nil {
			err = json.Unmarshal(body, &got)
		}
		if err != nil || got.ModelVersion != s.ActiveModel {
			bad = append(bad, fmt.Sprintf("%s: classify answered by v%d, active v%d (%v)", t, got.ModelVersion, s.ActiveModel, err))
		}
	}
	o.check("learn decisions accounted", len(bad) == 0, "cycles = promotions + rejections + rollbacks + skips + monitoring, active models serve %v", bad)
}

// learnLayers fills the per-layer metrics of a traced learn run.
func learnLayers(e *env, o *outcome, st *learnState, cycles []*cycleObs, d obsDelta, fromSent, late, traced, untraced []float64) {
	handler := d.histQuantile("server.http.latency", 0.5) * 1e3
	o.layer["server.handler_p50_ms"] = handler
	o.layer["server.transport_p50_ms"] = quantile(sortedCopy(fromSent), 0.5) - handler
	o.layer["gen.lateness_p99_ms"] = quantile(sortedCopy(late), 0.99)
	o.layer["obs.trace_overhead"] = ratio(median(traced), median(untraced))
	o.layer["tenant.loads"] = d.counter("server.tenant.loads")
	o.layer["tenant.evictions"] = d.counter("server.tenant.evictions")
	o.layer["tenant.state_spills"] = d.counter("server.tenant.state_spills")
	o.layer["telemetry.rotations"] = d.counter("server.telemetry.rotations")
	reused, rebuilt := d.counter("learn.trainset.reused"), d.counter("learn.trainset.rebuilt")
	o.layer["learn.trainset_reuse_ratio"] = ratio(reused, reused+rebuilt)

	var ingest, reload, fz, fit, eval []float64
	for _, c := range cycles {
		ingest = append(ingest, c.ingest.Seconds()*1e3)
		if !c.resident {
			reload = append(reload, c.ingest.Seconds()*1e3)
		}
		fz = append(fz, c.report.FeaturizeSeconds)
		fit = append(fit, c.report.TrainSeconds)
		eval = append(eval, c.report.EvalSeconds)
		o.layer["learn.decisions."+c.report.Decision]++
	}
	o.layer["telemetry.ingest_p50_ms"] = median(ingest)
	if len(reload) > 0 {
		o.layer["tenant.reload_ms"] = median(reload)
	}
	o.layer["learn.featurize_s"] = median(fz)
	o.layer["learn.fit_s"] = median(fit)
	o.layer["learn.eval_s"] = median(eval)

	// Replay the encoder training of the first promotion window. A tenant's
	// window holds the distinct records of its source database, so the
	// replay trains on those.
	var residual []float64
	for _, c := range cycles {
		if r := c.report; r.Decision != learn.DecisionPromoted || r.EncoderVersion == 0 {
			continue
		}
		var inputs [][]float64
		for _, s := range embed.RecordSamples(st.fx.telemetry[c.source], feat.DefaultChannels()) {
			inputs = append(inputs, embed.PlanInput(feat.DefaultChannels(), s.Vectors, s.Est))
		}
		sp := e.tr.start("embed.train", 0, c.tenant)
		t0 := time.Now()
		if _, err := embed.Train(inputs, embed.Config{Channels: feat.DefaultChannels(), Seed: modelSeed}); err == nil {
			o.layer["embed.encoder_train_s"] = time.Since(t0).Seconds()
		}
		sp.end()
		break
	}
	for _, c := range cycles {
		r := c.report
		if r.Decision == learn.DecisionPromoted {
			residual = append(residual, r.FinishedAt.Sub(r.StartedAt).Seconds()-r.FeaturizeSeconds-r.TrainSeconds-r.EvalSeconds)
		}
	}
	if len(residual) > 0 {
		o.layer["registry.promote_s"] = median(residual)
	}

	// On-disk footprint: model versions and telemetry bytes per record.
	// A file that vanishes mid-walk only leaves the footprint short.
	var versions, storeBytes, telBytes, telRecords float64
	_ = filepath.WalkDir(st.dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		switch name := de.Name(); {
		case strings.HasSuffix(name, ".clf"):
			versions++
			storeBytes += float64(info.Size())
		case strings.HasPrefix(name, "telemetry.jsonl"):
			telBytes += float64(info.Size())
			if data, err := os.ReadFile(path); err == nil {
				telRecords += float64(bytes.Count(data, []byte{'\n'}))
			}
		}
		return nil
	})
	o.layer["registry.versions"] = versions
	o.layer["registry.store_bytes"] = storeBytes
	o.layer["telemetry.bytes_per_record"] = ratio(telBytes, telRecords)
}
