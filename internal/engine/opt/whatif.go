package opt

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/obs"
)

// Pre-resolved metric handles (see DESIGN.md §7). A "hit" found a completed
// plan; a "wait" joined another caller's in-flight optimization
// (singleflight); a "miss" paid for an Optimize; an "evict" made room.
var (
	mCacheHit   = obs.C("whatif.cache.hit")
	mCacheMiss  = obs.C("whatif.cache.miss")
	mCacheWait  = obs.C("whatif.cache.wait")
	mCacheEvict = obs.C("whatif.cache.evict")
	mEntries    = obs.G("whatif.cache.entries")
	mShardMax   = obs.G("whatif.cache.shard.max")
	mProbeLat   = obs.H("whatif.probe.latency")
	mProbeErr   = obs.C("whatif.probe.error")
)

// whatIfShards is the number of cache shards. Sharding keeps lock hold
// times short when a parallel tuner issues many concurrent probes.
const whatIfShards = 16

// whatIfNodeBudget bounds the plan nodes a cache holds (nodes, since a
// many-way join plan has many), split evenly over its shards: 5× the 51k
// nodes a cold tune job on the benchmark's cust9 caches, about 50 MiB.
const whatIfNodeBudget = 1 << 18

// WhatIf wraps an Optimizer with a plan cache keyed by (query fingerprint,
// fingerprint of the configuration's indexes relevant to the query). Index
// tuners probe the same hypothetical configurations for many queries and
// the same query under many configurations; caching keeps the search
// cheap, mirroring the optimizer-call caching of production tuners.
//
// The cache key includes the query's full fingerprint (constants included):
// two distinct queries that merely share a Name never receive each other's
// plans. Its configuration half keeps only the indexes relevant to the
// query (Optimizer.Relevant; Chaudhuri and Narasayya: a plan depends only
// on the indexes relevant to its query). The planner drops the same
// others: an index on a table the query does not reference, and a B+ tree
// that no predicate, join or covering scan of the query can read.
// Configurations that differ only in such indexes share one plan. A hit
// for a configuration whose full fingerprint differs from the cached
// plan's ConfigFP returns a shallow copy that shares Root and carries the
// caller's ConfigFP, so the plan always names the configuration it was
// asked for.
//
// It is safe for concurrent use: the cache is sharded to cut lock
// contention, and concurrent misses on the same key are deduplicated
// singleflight-style so Optimize runs once per key, not once per caller.
// It is always bounded by whatIfNodeBudget and evicts by CLOCK
// (insertLocked). A plan is a pure function of (query, configuration,
// statistics), so an eviction changes a later call's time, never its answer.
type WhatIf struct {
	Opt *Optimizer

	shardNodes int // each shard's share of whatIfNodeBudget; tests lower it
	shards     [whatIfShards]whatIfShard
	calls      atomic.Int64
	hits       atomic.Int64
}

// whatIfShard is one lock's share of the cache: completed plans, the misses
// in flight (so a cached plan carries no wait state and a failed call leaves
// only flight), the plan the CLOCK hand last passed, and the plans' nodes.
type whatIfShard struct {
	mu     sync.Mutex
	plans  map[whatIfKey]*whatIfEntry
	flight map[whatIfKey]*whatIfCall
	hand   *whatIfEntry
	nodes  int
}

type whatIfKey struct {
	queryFP  string
	configFP string
}

// whatIfEntry is one cached plan, linked into its shard's CLOCK ring.
type whatIfEntry struct {
	key   whatIfKey
	p     *plan.Plan
	next  *whatIfEntry
	nodes int
	ref   bool // set by a hit, cleared when the hand passes
}

// whatIfCall is a miss in flight; p and err may be read once wg.Wait returns.
type whatIfCall struct {
	wg  sync.WaitGroup
	p   *plan.Plan
	err error
}

// NewWhatIf returns a caching what-if facade over the optimizer.
func NewWhatIf(o *Optimizer) *WhatIf {
	w := &WhatIf{Opt: o, shardNodes: whatIfNodeBudget / whatIfShards}
	w.Reset()
	return w
}

func (w *WhatIf) shardFor(key whatIfKey) *whatIfShard {
	h := fnv.New32a()
	h.Write([]byte(key.queryFP))
	h.Write([]byte{0})
	h.Write([]byte(key.configFP))
	return &w.shards[h.Sum32()%whatIfShards]
}

// Plan returns the optimizer's plan for q under the (possibly hypothetical)
// configuration cfg. Results are cached; callers must not mutate the
// returned plan (the executor only reads it). Plan is safe to call from
// many goroutines.
func (w *WhatIf) Plan(q *query.Query, cfg *catalog.Configuration) (*plan.Plan, error) {
	if cfg == nil {
		cfg = emptyConfig
	}
	qi := w.Opt.queryInfo(q)
	relevant := func(ix *catalog.Index) bool { _, ok := qi.indexTable(ix); return ok }
	key := whatIfKey{queryFP: qi.fp, configFP: cfg.FingerprintOf(relevant)}
	sh := w.shardFor(key)
	w.calls.Add(1)

	sh.mu.Lock()
	if e, ok := sh.plans[key]; ok {
		e.ref = true
		sh.mu.Unlock()
		mCacheHit.Inc()
		return w.hit(e.p, cfg), nil
	}
	if c, ok := sh.flight[key]; ok {
		sh.mu.Unlock()
		mCacheWait.Inc()
		c.wg.Wait()
		if c.err != nil {
			return nil, c.err // the owning call failed: no retry under this one
		}
		return w.hit(c.p, cfg), nil
	}
	c := new(whatIfCall)
	c.wg.Add(1)
	sh.flight[key] = c
	sh.mu.Unlock()
	mCacheMiss.Inc()

	t0 := mProbeLat.Start()
	c.p, c.err = w.Opt.Optimize(q, cfg)
	mProbeLat.Stop(t0)
	if c.err != nil {
		mProbeErr.Inc()
	}
	w.settle(sh, key, c)
	return c.p, c.err
}

// hit counts a call served without an Optimize and returns p under cfg's
// fingerprint: a shallow copy sharing Root when p was planned for a
// configuration that differs from cfg in indexes the query cannot use.
func (w *WhatIf) hit(p *plan.Plan, cfg *catalog.Configuration) *plan.Plan {
	w.hits.Add(1)
	if fp := cfg.Fingerprint(); fp != p.ConfigFP {
		cp := *p
		cp.ConfigFP = fp
		return &cp
	}
	return p
}

// settle ends the miss c and wakes its waiters. Unless Reset has dropped c
// from the in-flight map meanwhile, c leaves that map and its plan is
// cached. Failures are not cached, so a later call retries.
func (w *WhatIf) settle(sh *whatIfShard, key whatIfKey, c *whatIfCall) {
	sh.mu.Lock()
	if sh.flight[key] == c {
		delete(sh.flight, key)
		if c.err == nil {
			sh.insertLocked(key, c.p, w.shardNodes)
		}
	}
	sh.mu.Unlock()
	c.wg.Done()
}

// insertLocked caches p under key. While the plans and p exceed budget
// nodes the hand advances, clearing set reference bits and evicting the
// first plan without one; each bit it clears was set by a hit, so an insert
// is O(1) amortized. A plan larger than budget is returned but not cached.
func (sh *whatIfShard) insertLocked(key whatIfKey, p *plan.Plan, budget int) {
	n, _ := countNodes(p.Root)
	if n > budget {
		return
	}
	for sh.nodes+n > budget {
		e := sh.hand.next
		if e.ref {
			e.ref = false
			sh.hand = e
			continue
		}
		sh.hand.next = e.next
		delete(sh.plans, e.key)
		sh.nodes -= e.nodes
		mCacheEvict.Inc()
		mEntries.Add(-1)
	}
	e := &whatIfEntry{key: key, p: p, nodes: n}
	if len(sh.plans) == 0 {
		e.next = e // a lone plan's ring is itself
	} else {
		e.next, sh.hand.next = sh.hand.next, e
	}
	sh.hand = e // the new plan is the last the hand reaches
	sh.plans[key] = e
	sh.nodes += n
	mEntries.Add(1)
	mShardMax.Max(float64(len(sh.plans)))
}

// Stats reports cache calls and hits, for tuner overhead accounting. A call
// that joins another caller's in-flight optimization counts as a hit: it
// did not pay for an Optimize.
func (w *WhatIf) Stats() (calls, hits int) {
	return int(w.calls.Load()), int(w.hits.Load())
}

// Reset clears the cache (used between tuning iterations when statistics
// change). In-flight optimizations complete and are delivered to their
// waiters but are not re-inserted (settle), and a later call plans afresh.
func (w *WhatIf) Reset() {
	var dropped int
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		dropped += len(sh.plans)
		sh.plans = map[whatIfKey]*whatIfEntry{}
		sh.flight = map[whatIfKey]*whatIfCall{}
		sh.hand, sh.nodes = nil, 0
		sh.mu.Unlock()
	}
	mEntries.Add(-float64(dropped))
	w.calls.Store(0)
	w.hits.Store(0)
}
