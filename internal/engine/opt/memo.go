package opt

import (
	"strconv"
	"sync"

	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/obs"
)

// Access-path memo metrics (see DESIGN.md §7 for the conventions). Hit and
// miss totals are gauges mirrored from the memo's internal tallies once per
// Optimize rather than counters bumped per lookup: lookups sit on the
// planning hot path, where even a disabled counter's atomic-load-and-branch
// is measurable (obs_overhead_test.go budgets it).
var (
	mMemoHits    = obs.G("opt.memo.hit")
	mMemoMisses  = obs.G("opt.memo.miss")
	mMemoEvict   = obs.C("opt.memo.evict")
	mMemoEntries = obs.G("opt.memo.entries")
)

// maxPathMemoEntries bounds the per-optimizer access-path memo. Entries are
// small (a handful of plan nodes), so the bound is generous; FIFO eviction
// keeps the steady state hot during a tuning run, where the same (table,
// predicate, index-set) triples recur across thousands of candidate
// configurations.
const maxPathMemoEntries = 8192

// memoEntry is one memoized access path, cloned out of the planner's
// arenas: the winning subPlan plus
// the cost.Args of every node in its subtree (preorder), so a hit can
// re-register the args a later parallelize/cloneRecost pass needs. The
// entry owns its tree; hits clone it back into the arena (cloneIn).
type memoEntry struct {
	sp   subPlan
	args []cost.Args // preorder over sp.node's subtree
}

// pathMemo caches bestAccessPath results per optimizer. Everything an
// access path depends on is either in the key (table, ordered predicate
// signature with constants, columns used, IDs of the table's indexes
// relevant to the query) or guarded by the generation pointers (statistics
// and cost model): when o.Stats or o.Model is swapped the whole memo is
// invalidated. The zero value is ready to use.
type pathMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	order   []string // FIFO eviction order
	stats   *stats.DatabaseStats
	model   *cost.Model
	hits    uint64
	misses  uint64
}

// lookup returns the entry for key, or nil. It flushes the memo when the
// optimizer's statistics or model object changed since the last call. The
// key is taken as bytes so the hot path probes the map without converting
// to a heap string.
func (m *pathMemo) lookup(key []byte, st *stats.DatabaseStats, model *cost.Model) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stats != st || m.model != model {
		m.entries = nil
		m.order = m.order[:0]
		m.stats = st
		m.model = model
		mMemoEntries.Set(0)
	}
	e := m.entries[string(key)] // no alloc: compiler-recognized byte-slice map probe
	if e == nil {
		m.misses++
		return nil
	}
	m.hits++
	return e
}

// flushObs mirrors the internal hit/miss tallies into the observability
// gauges. Called once per Optimize so per-lookup paths stay free of obs
// traffic.
func (m *pathMemo) flushObs() {
	m.mu.Lock()
	h, mi := m.hits, m.misses
	m.mu.Unlock()
	mMemoHits.Set(float64(h))
	mMemoMisses.Set(float64(mi))
}

// store inserts an entry, evicting the oldest when full. A racing store for
// the same key overwrites harmlessly (entries for equal keys are
// interchangeable).
func (m *pathMemo) store(key string, e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
	}
	if _, ok := m.entries[key]; !ok {
		for len(m.order) >= maxPathMemoEntries {
			oldest := m.order[0]
			m.order = m.order[1:]
			delete(m.entries, oldest)
			mMemoEvict.Inc()
		}
		m.order = append(m.order, key)
	}
	m.entries[key] = e
	mMemoEntries.Set(float64(len(m.entries)))
}

func (m *pathMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = nil
	m.order = nil
	m.stats = nil
	m.model = nil
	mMemoEntries.Set(0)
}

// InvalidatePathMemo drops all memoized access paths. Swapping o.Stats or
// o.Model already invalidates the memo implicitly (generation pointers);
// this is for callers that mutate either in place.
func (o *Optimizer) InvalidatePathMemo() {
	o.memo.reset()
}

// PathMemoStats returns lifetime hit/miss counts and the current entry
// count of the access-path memo.
func (o *Optimizer) PathMemoStats() (hits, misses uint64, entries int) {
	m := &o.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, len(m.entries)
}

// appendPathMemoKey renders the inputs bestAccessPath consumes into a
// compact key appended to b (callers reuse per-table buffers). Predicate
// order is preserved (selectivities multiply in predicate order, so order
// is semantically significant for float reproducibility); columns and index
// IDs arrive pre-sorted from ColumnsUsed/SortedIndexes. The separators
// 0x1e/0x1f never appear in identifiers.
func appendPathMemoKey(b []byte, table string, preds []query.Pred, need []string, ixs []*catalog.Index) []byte {
	b = append(b, table...)
	for _, pr := range preds {
		b = append(b, 0x1f)
		b = append(b, pr.Column...)
		b = append(b, ':')
		b = strconv.AppendInt(b, pr.Lo, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, pr.Hi, 10)
	}
	b = append(b, 0x1e)
	for _, c := range need {
		b = append(b, c...)
		b = append(b, ',')
	}
	b = append(b, 0x1e)
	for _, ix := range ixs {
		b = append(b, ix.ID()...)
		b = append(b, ';')
	}
	return b
}

// newMemoEntry snapshots a freshly built subplan for memoization: the node
// tree is cloned out of the arena into entry-owned slabs and the preorder
// args are captured alongside.
func (p *planner) newMemoEntry(sp *subPlan) *memoEntry {
	e := &memoEntry{sp: *sp}
	e.args = make([]cost.Args, 0, 4)
	e.sp.node = p.cloneOut(sp.node, &e.args)
	return e
}

// instantiate turns a memo entry into a fresh subPlan for the current
// planner: the entry-owned tree is cloned into the arena (plans must not
// share mutable structure with the memo) and each clone's args are
// registered so parallelize can recost it; the table bitmask is recomputed
// for this query's table order.
func (p *planner) instantiate(e *memoEntry, mask uint64) *subPlan {
	sp := p.sub(e.sp)
	sp.node = p.cloneIn(e.sp.node, e.args)
	sp.tables = mask
	return sp
}
