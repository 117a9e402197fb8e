package opt

// Planning allocates many short-lived objects per Optimize call: plan
// nodes for every candidate access path and for the returned plan's joins,
// aggregation and parallel alternative, their annotation blocks, and
// subPlan headers (one join recipe per DP table set). A node holds its
// children in its own slots, so they need no storage of their own. Join
// alternatives themselves are costed without nodes (planner.bestJoin). All
// of these die when the winning plan is cloned out at the plan boundary, so
// the planner carves them out of chunked arenas owned by the (pooled)
// planner and resets the arenas between calls instead of paying the
// allocator and the garbage collector per object.
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
const chunkSize = 64

// arena hands out pointer-stable slots of T, set to the value given.
type arena[T any] struct {
	chunks [][]T
	ci, n  int // current chunk index, offset within it
}

func (a *arena[T]) alloc(v T) *T {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, chunkSize))
	}
	p := &a.chunks[a.ci][a.n]
	a.n++
	if a.n == chunkSize {
		a.ci++
		a.n = 0
	}
	*p = v
	return p
}

func (a *arena[T]) reset() { a.ci, a.n = 0, 0 }
