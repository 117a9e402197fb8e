package tenant

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sync"

	"repro/internal/embed"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/server/registry"
	"repro/internal/telemetry"
)

// Manager metric handles (see DESIGN.md §14).
var (
	mActive     = obs.G("server.tenant.active")
	mEvictions  = obs.C("server.tenant.evictions")
	mLoads      = obs.C("server.tenant.loads")
	mWarmStarts = obs.C("server.tenant.warm_starts")
	mSpills     = obs.C("server.tenant.state_spills")
)

// Config wires a Manager to the per-tenant resources it materializes. The
// server's Config embeds it, so each setting is declared here once.
type Config struct {
	// TenantsDir is the data root for non-default tenants: tenant t gets a
	// model registry at <TenantsDir>/<t>/models and a telemetry partition
	// at <TenantsDir>/<t>/telemetry.jsonl. Empty keeps non-default tenants
	// entirely in memory (ephemeral registries and bounded telemetry
	// buffers).
	TenantsDir string
	// DefaultModelDir / DefaultTelemetryPath are the default tenant's
	// locations — the exact paths a pre-multi-tenant server used, so
	// existing deployments keep their registry and telemetry in place.
	// Empty keeps the default tenant's models or telemetry in memory.
	DefaultModelDir      string
	DefaultTelemetryPath string

	// MaxActiveTenants bounds the materialized tenant set (default 8,
	// min 1). The least-recently-used idle tenant is evicted — learning
	// loop stopped, telemetry flushed and closed — and transparently
	// reloaded on its next request.
	MaxActiveTenants int

	// RegistryKeep bounds each tenant's registry after promotions and
	// uploads: the active version, its predecessor (the rollback target),
	// and the newest RegistryKeep versions survive pruning. 0 keeps
	// everything.
	RegistryKeep int
	// TelemetrySegmentBytes / TelemetrySegments bound each tenant's
	// on-disk telemetry: segments rotate at TelemetrySegmentBytes and at
	// most TelemetrySegments are retained (0 = package defaults, 8 MiB
	// and 4).
	TelemetrySegmentBytes int64
	TelemetrySegments     int
	// IngestRate engages per-tenant telemetry sampling above this many
	// records/second (0 = never sample); sampled-out records are
	// compensated by weighting survivors, keeping learn-loop aggregates
	// unbiased (see telemetry.Opts.SampleRate).
	IngestRate float64

	// Learn configures every tenant's learning loop. Loops are fully
	// independent — own drift reference, promotion monitor, and cycle
	// serialization — but share one recipe, so a tenant's model depends
	// only on its own telemetry (the isolation tests pin this).
	Learn learn.Options

	// Rate / Burst configure each tenant's synchronous-plane token bucket
	// (requests/second; Rate 0 disables admission control).
	Rate  float64
	Burst int

	// WarmStartFloor is the minimum cosine similarity between a modelless
	// tenant's workload embedding and a sibling's persisted one for the
	// sibling's champion to seed it (0 = default 0.80; negative disables
	// cross-tenant warm start).
	WarmStartFloor float64
}

func (c Config) withDefaults() Config {
	if c.MaxActiveTenants <= 0 {
		c.MaxActiveTenants = 8
	}
	if c.WarmStartFloor == 0 {
		c.WarmStartFloor = DefaultWarmStartFloor
	}
	return c
}

// DefaultWarmStartFloor is the similarity bar a cross-tenant match must
// clear: high enough that only near-identical workload shapes seed a new
// tenant, so a bad borrow is rarer than a cold start.
const DefaultWarmStartFloor = 0.80

// Tenant is one materialized tenant: its registry namespace, telemetry
// partition, learning loop, and admission bucket. Fields are read-only
// after materialization; the manager owns lifecycle.
type Tenant struct {
	ID   string
	Reg  *registry.Registry
	Sink *telemetry.Sink
	Loop *learn.Loop

	bucket *Bucket
	// statePath is where the learning loop's in-memory state (drift
	// references, promotion monitor, counters) spills at finalization and
	// restores from at materialization ("" = memory-only tenant, no spill).
	statePath string
}

// Admit spends one synchronous-plane token. ok=false carries the
// Retry-After to surface with the 429.
func (t *Tenant) Admit(now time.Time) (ok bool, retryAfter time.Duration) {
	return t.bucket.Allow(now)
}

// entry tracks a materialized tenant's lifecycle inside the manager.
type entry struct {
	t        *Tenant
	refs     int
	lastUsed uint64
}

// Manager lazily materializes tenants behind an LRU-bounded active set.
// Acquire/Release bracket every request touching tenant state; eviction
// only claims tenants with zero in-flight references, so handlers never
// observe a closing sink or stopped loop.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	active map[string]*entry
	// closing tracks evicted tenants whose finalization (loop stop, sink
	// flush/close) is still in flight; re-acquiring one waits for its
	// channel so two sinks never hold the same telemetry file.
	closing map[string]chan struct{}
	seq     uint64
	closed  bool
}

// NewManager builds a manager; tenants materialize on first Acquire.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:     cfg.withDefaults(),
		active:  map[string]*entry{},
		closing: map[string]chan struct{}{},
	}
}

// paths resolves tenant id's on-disk locations ("" = memory-only). The
// learn-state spill lives next to the tenant's other artifacts: inside the
// model dir for the default tenant (whose layout predates the tenants
// root), beside models/ and telemetry.jsonl for everyone else.
func (m *Manager) paths(id string) (modelDir, telPath, statePath string, err error) {
	if id == DefaultID {
		if m.cfg.DefaultModelDir != "" {
			statePath = filepath.Join(m.cfg.DefaultModelDir, "learn_state.json")
		}
		return m.cfg.DefaultModelDir, m.cfg.DefaultTelemetryPath, statePath, nil
	}
	if m.cfg.TenantsDir == "" {
		return "", "", "", nil
	}
	base := filepath.Join(m.cfg.TenantsDir, id)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", "", "", fmt.Errorf("tenant: creating %s: %w", base, err)
	}
	return filepath.Join(base, "models"), filepath.Join(base, "telemetry.jsonl"),
		filepath.Join(base, "learn_state.json"), nil
}

// Acquire returns tenant id's materialized state, loading (or reloading,
// after an eviction) it on demand, and takes a reference that blocks
// eviction until the matching Release. Invalid IDs fail with ErrInvalidID.
func (m *Manager) Acquire(id string) (*Tenant, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil, fmt.Errorf("tenant: manager closed")
		}
		if e, ok := m.active[id]; ok {
			m.seq++
			e.refs++
			e.lastUsed = m.seq
			return e.t, nil
		}
		ch, pending := m.closing[id]
		if !pending {
			break
		}
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
	m.seq++
	t, err := m.materializeLocked(id)
	if err != nil {
		return nil, err
	}
	m.active[id] = &entry{t: t, refs: 1, lastUsed: m.seq}
	mActive.Set(float64(len(m.active)))
	mLoads.Inc()
	m.evictOverflowLocked()
	return t, nil
}

// materializeLocked opens tenant id's registry and telemetry partition and
// starts its learning loop. A persistent tenant that was evicted earlier
// resumes from its CURRENT pointer, on-disk telemetry window, and spilled
// learn state (drift references, promotion monitor, counters); a modelless
// tenant with telemetry may be warm-started from a sibling's champion
// (see warmStart).
func (m *Manager) materializeLocked(id string) (*Tenant, error) {
	modelDir, telPath, statePath, err := m.paths(id)
	if err != nil {
		return nil, err
	}
	reg, err := registry.Open(modelDir)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", id, err)
	}
	sink, err := telemetry.Open(telemetry.Opts{
		Path:         telPath,
		SegmentBytes: m.cfg.TelemetrySegmentBytes,
		MaxSegments:  m.cfg.TelemetrySegments,
		SampleRate:   m.cfg.IngestRate,
		SampleSeed:   m.cfg.Learn.Seed,
		Label:        id,
	})
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", id, err)
	}
	t := &Tenant{
		ID:        id,
		Reg:       reg,
		Sink:      sink,
		Loop:      learn.NewLoop(reg, sink.Snapshot, m.cfg.RegistryKeep, m.cfg.Learn),
		bucket:    NewBucket(m.cfg.Rate, m.cfg.Burst),
		statePath: statePath,
	}
	// A corrupt spill file starts the loop clean instead of refusing the
	// tenant — the spill is an optimization, never a gate.
	_ = t.Loop.RestoreStateFile(statePath)
	m.warmStart(t)
	t.Loop.Start()
	return t, nil
}

// warmStart seeds a modelless tenant from its most similar sibling. The
// tenant's own telemetry is embedded under each sibling's active plan
// encoder and compared (cosine) against that sibling's persisted workload
// embedding; the best match above WarmStartFloor donates its champion
// classifier and encoder, with full provenance recorded in the registry.
// Every failure path simply leaves the tenant cold — warm start is an
// optimization, never a gate.
func (m *Manager) warmStart(t *Tenant) {
	if m.cfg.WarmStartFloor <= 0 || m.cfg.TenantsDir == "" || t.Reg.Models.Active() != nil {
		return
	}
	recs, _ := t.Sink.Snapshot()
	if len(recs) == 0 {
		return // nothing to match a sibling's workload against
	}
	type candidate struct {
		id        string
		modelDir  string
		sim       float64
		modelBlob []byte
		modelVer  int
		encBlob   []byte
		encVer    int
	}
	dirs := []candidate{}
	if entries, err := os.ReadDir(m.cfg.TenantsDir); err == nil {
		for _, e := range entries {
			if e.IsDir() && e.Name() != t.ID {
				dirs = append(dirs, candidate{id: e.Name(), modelDir: filepath.Join(m.cfg.TenantsDir, e.Name(), "models")})
			}
		}
	}
	if t.ID != DefaultID && m.cfg.DefaultModelDir != "" {
		dirs = append(dirs, candidate{id: DefaultID, modelDir: m.cfg.DefaultModelDir})
	}
	var best *candidate
	for i := range dirs {
		c := &dirs[i]
		// A corrupt or incomplete sibling is skipped, not fatal: every peek
		// validates before the blob is trusted.
		we, err := registry.PeekWorkloadEmbedding(c.modelDir)
		if err != nil {
			continue
		}
		enc, encVer, encBlob, err := registry.PeekActiveEncoder(c.modelDir)
		if err != nil {
			continue
		}
		modelBlob, modelVer, err := registry.PeekActiveModel(c.modelDir)
		if err != nil {
			continue
		}
		ours := enc.Workload(embed.RecordSamples(recs, enc.Channels()))
		if ours == nil {
			continue
		}
		c.sim = embed.Cosine(ours.Vector, we.Vector)
		c.modelBlob, c.modelVer = modelBlob, modelVer
		c.encBlob, c.encVer = encBlob, encVer
		// Strictly-greater keeps the lexicographically first sibling on
		// ties (os.ReadDir sorts), so the scan is deterministic.
		if c.sim >= m.cfg.WarmStartFloor && (best == nil || c.sim > best.sim) {
			best = c
		}
	}
	if best == nil {
		return
	}
	if _, err := t.Reg.Models.AddAndActivate(best.modelBlob); err != nil {
		return
	}
	prov := &registry.Provenance{
		SeededFrom: best.id, SourceVersion: best.modelVer,
		Similarity: best.sim, At: time.Now().UTC(),
	}
	// The encoder ride-along gives the seeded tenant an embedding-drift
	// reference path from cycle one; losing it degrades gracefully.
	if _, err := t.Reg.Encoders.AddAndActivate(best.encBlob); err == nil {
		prov.SourceEncoder = best.encVer
	}
	_ = t.Reg.SaveProvenance(prov)
	mWarmStarts.Inc()
}

// Release drops a reference taken by Acquire.
func (m *Manager) Release(t *Tenant) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.active[t.ID]; ok && e.t == t && e.refs > 0 {
		e.refs--
	}
}

// evictOverflowLocked evicts least-recently-used idle tenants until the
// active set fits MaxActiveTenants. Tenants with in-flight references are
// never evicted (the set may transiently exceed the bound under concurrent
// load). Finalization — stopping the loop, flushing and closing the sink —
// runs without the manager lock so slow teardown cannot stall unrelated
// tenants.
func (m *Manager) evictOverflowLocked() {
	var victims []*Tenant
	for len(m.active) > m.cfg.MaxActiveTenants {
		var victim string
		var oldest uint64
		for id, e := range m.active {
			if e.refs > 0 {
				continue
			}
			if victim == "" || e.lastUsed < oldest {
				victim, oldest = id, e.lastUsed
			}
		}
		if victim == "" {
			break // everyone is busy; retry on the next Acquire
		}
		victims = append(victims, m.active[victim].t)
		delete(m.active, victim)
		m.closing[victim] = make(chan struct{})
	}
	if len(victims) == 0 {
		return
	}
	mActive.Set(float64(len(m.active)))
	mEvictions.Add(int64(len(victims)))
	go func() {
		for _, t := range victims {
			finalize(t)
			m.mu.Lock()
			ch := m.closing[t.ID]
			delete(m.closing, t.ID)
			m.mu.Unlock()
			close(ch)
		}
	}()
}

// finalize cleanly shuts one tenant down: the loop stops first (it reads
// the sink), spills its in-memory state (drift references, monitor,
// counters) so a reload resumes mid-lifecycle, then the sink flushes and
// closes. Registry state is already durable (every Activate persisted
// CURRENT).
func finalize(t *Tenant) {
	t.Loop.Stop()
	if t.statePath != "" {
		if err := t.Loop.SaveStateFile(t.statePath); err == nil {
			mSpills.Inc()
		}
	}
	_ = t.Sink.Flush()
	_ = t.Sink.Close()
}

// ActiveCount reports the materialized tenant count.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// ActiveIDs snapshots the materialized tenant IDs (unordered).
func (m *Manager) ActiveIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.active))
	for id := range m.active {
		out = append(out, id)
	}
	return out
}

// Close finalizes every tenant (loops stopped, sinks flushed and closed)
// and rejects further Acquires. ctx bounds the wait for in-flight
// references to drain; tenants still referenced when it expires are
// finalized anyway (their requests will observe closed-sink errors).
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	// Wait for in-flight references to drain so finalize never races a
	// handler mid-request.
	for {
		m.mu.Lock()
		busy := 0
		for _, e := range m.active {
			busy += e.refs
		}
		m.mu.Unlock()
		if busy == 0 || ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.mu.Lock()
	ts := make([]*Tenant, 0, len(m.active))
	for _, e := range m.active {
		ts = append(ts, e.t)
	}
	m.active = map[string]*entry{}
	pending := make([]chan struct{}, 0, len(m.closing))
	for _, ch := range m.closing {
		pending = append(pending, ch)
	}
	mActive.Set(0)
	m.mu.Unlock()
	for _, t := range ts {
		finalize(t)
	}
	for _, ch := range pending {
		<-ch // evictions already in flight finish their teardown
	}
	return ctx.Err()
}
