package opt

import "repro/internal/engine/plan"

// Planning allocates many short-lived objects per Optimize call: plan
// nodes for every candidate access path and for the returned plan's joins,
// aggregation and parallel alternative, child slices, and subPlan headers
// (one join recipe per DP table set). Join alternatives themselves are
// costed without nodes (planner.bestJoin). All of these die when the
// winning plan is cloned out at the plan boundary, so the planner carves
// them out of chunked arenas owned by the (pooled) planner and resets the
// arenas between calls instead of paying the allocator and the garbage
// collector per object.
//
// Chunking (rather than one growable slice) keeps every handed-out pointer
// stable: appending a new chunk never moves previously allocated objects,
// which plan nodes reference each other by pointer.
//
// Lifetime rules (see DESIGN.md §12):
//
//   - arena objects are valid only within the Optimize call that allocated
//     them and are recycled wholesale by reset();
//   - the returned plan is the only thing that outlives the call: it is
//     cloned *out* into compact, exactly-sized heap slabs (cloneOut).
const (
	nodeChunkSize  = 64
	childChunkSize = 256
	subChunkSize   = 64
)

// nodeArena hands out pointer-stable plan.Node slots.
type nodeArena struct {
	chunks [][]plan.Node
	ci, n  int // current chunk index, offset within it
}

func (a *nodeArena) alloc() *plan.Node {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]plan.Node, nodeChunkSize))
	}
	nd := &a.chunks[a.ci][a.n]
	a.n++
	if a.n == nodeChunkSize {
		a.ci++
		a.n = 0
	}
	return nd
}

func (a *nodeArena) reset() { a.ci, a.n = 0, 0 }

// childArena is a bump allocator for Children slices.
type childArena struct {
	chunks [][]*plan.Node
	ci, n  int
}

func (a *childArena) alloc(k int) []*plan.Node {
	if k == 0 {
		return nil
	}
	if k > childChunkSize {
		// Oversized request (never produced by the planner today): fall
		// back to a one-off heap slice rather than complicating the arena.
		return make([]*plan.Node, k)
	}
	if a.ci < len(a.chunks) && a.n+k > childChunkSize {
		a.ci++
		a.n = 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]*plan.Node, childChunkSize))
	}
	s := a.chunks[a.ci][a.n : a.n+k : a.n+k]
	a.n += k
	return s
}

func (a *childArena) reset() { a.ci, a.n = 0, 0 }

// subArena hands out pointer-stable subPlan slots.
type subArena struct {
	chunks [][]subPlan
	ci, n  int
}

func (a *subArena) alloc(sp subPlan) *subPlan {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]subPlan, subChunkSize))
	}
	p := &a.chunks[a.ci][a.n]
	a.n++
	if a.n == subChunkSize {
		a.ci++
		a.n = 0
	}
	*p = sp
	return p
}

func (a *subArena) reset() { a.ci, a.n = 0, 0 }
