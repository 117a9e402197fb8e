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
// (singleflight); a "miss" paid for an Optimize.
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
type WhatIf struct {
	Opt *Optimizer

	// MaxEntries optionally bounds the number of cached plans (0 = no
	// bound). When the bound is exceeded, the oldest completed entries are
	// evicted first. Continuous tuners that run indefinitely should set a
	// bound so the cache cannot grow without limit. Set before first use.
	MaxEntries int

	shards [whatIfShards]whatIfShard
	calls  atomic.Int64
	hits   atomic.Int64
}

type whatIfShard struct {
	mu      sync.Mutex
	entries map[whatIfKey]*whatIfEntry
	// order records insertion order for FIFO eviction; it may hold stale
	// keys (evicted or error-removed), which eviction skips.
	order []whatIfKey
}

type whatIfKey struct {
	queryFP  string
	configFP string
}

// whatIfEntry is one cache slot. done is closed when the owning call's
// Optimize completes; p/err must only be read after done is closed.
type whatIfEntry struct {
	done chan struct{}
	p    *plan.Plan
	err  error
}

// NewWhatIf returns a caching what-if facade over the optimizer.
func NewWhatIf(o *Optimizer) *WhatIf {
	w := &WhatIf{Opt: o}
	for i := range w.shards {
		w.shards[i].entries = map[whatIfKey]*whatIfEntry{}
	}
	return w
}

// NewWhatIfBounded returns a caching facade holding at most maxEntries
// plans, evicting oldest-first beyond the bound.
func NewWhatIfBounded(o *Optimizer, maxEntries int) *WhatIf {
	w := NewWhatIf(o)
	w.MaxEntries = maxEntries
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
	if e, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			mCacheHit.Inc()
		default:
			mCacheWait.Inc()
			<-e.done
		}
		if e.err != nil {
			// The owning call failed and removed the entry; surface the
			// same error rather than retrying under this call.
			return nil, e.err
		}
		w.hits.Add(1)
		if fp := cfg.Fingerprint(); fp != e.p.ConfigFP {
			// Planned under a configuration that differs from cfg only in
			// indexes the query cannot use: same plan, cfg's name.
			cp := *e.p
			cp.ConfigFP = fp
			return &cp, nil
		}
		return e.p, nil
	}
	e := &whatIfEntry{done: make(chan struct{})}
	sh.entries[key] = e
	sh.order = append(sh.order, key)
	mCacheMiss.Inc()
	mEntries.Add(1)
	mShardMax.Max(float64(len(sh.entries)))
	sh.evictLocked(w.MaxEntries)
	sh.mu.Unlock()

	t0 := mProbeLat.Start()
	p, err := w.Opt.Optimize(q, cfg)
	mProbeLat.Stop(t0)
	if err != nil {
		mProbeErr.Inc()
		// Do not cache failures: remove the slot so later calls retry.
		sh.mu.Lock()
		if sh.entries[key] == e {
			delete(sh.entries, key)
			mEntries.Add(-1)
		}
		sh.mu.Unlock()
		e.err = err
		close(e.done)
		return nil, err
	}
	e.p = p
	close(e.done)
	return p, nil
}

// evictLocked drops the oldest completed entries until the shard is within
// its share of the bound. In-flight entries are never evicted.
func (sh *whatIfShard) evictLocked(maxEntries int) {
	if maxEntries <= 0 {
		return
	}
	perShard := maxEntries / whatIfShards
	if perShard < 1 {
		perShard = 1
	}
	for len(sh.entries) > perShard && len(sh.order) > 0 {
		evicted := false
		for i, k := range sh.order {
			e, ok := sh.entries[k]
			if !ok {
				continue // stale: already evicted or removed on error
			}
			select {
			case <-e.done:
			default:
				continue // in flight: a caller still depends on the slot
			}
			delete(sh.entries, k)
			sh.order = append(sh.order[:i:i], sh.order[i+1:]...)
			mCacheEvict.Inc()
			mEntries.Add(-1)
			evicted = true
			break
		}
		if !evicted {
			return // everything left is in flight
		}
	}
	if len(sh.entries) <= perShard {
		// Compact fully-stale prefixes so order cannot grow unboundedly.
		i := 0
		for i < len(sh.order) {
			if _, ok := sh.entries[sh.order[i]]; ok {
				break
			}
			i++
		}
		sh.order = sh.order[i:]
	}
}

// Stats reports cache calls and hits, for tuner overhead accounting. A call
// that joins another caller's in-flight optimization counts as a hit: it
// did not pay for an Optimize.
func (w *WhatIf) Stats() (calls, hits int) {
	return int(w.calls.Load()), int(w.hits.Load())
}

// Reset clears the cache (used between tuning iterations when statistics
// change). In-flight optimizations complete and are delivered to their
// waiters but are not re-inserted.
func (w *WhatIf) Reset() {
	var dropped int
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		dropped += len(sh.entries)
		sh.entries = map[whatIfKey]*whatIfEntry{}
		sh.order = nil
		sh.mu.Unlock()
	}
	mEntries.Add(-float64(dropped))
	w.calls.Store(0)
	w.hits.Store(0)
}
