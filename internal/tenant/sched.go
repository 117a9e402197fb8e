package tenant

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// Scheduler metric handles (see DESIGN.md §14).
var (
	mSchedQueued   = obs.G("server.jobs.queue.depth")
	mSchedRejected = obs.C("server.jobs.rejected")
)

// ErrQueueFull is returned by Submit when the submitting tenant's queue is
// at capacity. The HTTP layer surfaces it as a per-tenant 429 — other
// tenants' queues are unaffected.
var ErrQueueFull = errors.New("tenant: job queue full")

// ErrSchedulerClosed is returned by Submit after Close.
var ErrSchedulerClosed = errors.New("tenant: scheduler closed")

// Scheduler is the fair-share job queue of the asynchronous tuning plane:
// each tenant owns a bounded FIFO, and workers drain the set with weighted
// round-robin — a tenant with weight w receives at most w consecutive
// dequeues before the rotation moves on, so a tenant flooding its queue
// delays its own jobs, not its neighbours'.
//
// Fairness bound: with active tenants T and weights w_t, a job at position
// k in tenant t's queue is dequeued after at most
// ceil(k/w_t) * Σ_{u≠t} w_u + k other jobs — independent of how deep any
// other tenant's queue is. TestSchedulerFairness pins this.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	perTenantCap  int
	weights       map[string]int
	defaultWeight int

	queues map[string]*tenantQueue
	ring   []string // rotation order: tenants with queued work, first-submit order
	pos    int      // current ring slot
	served int      // items handed to ring[pos] in its current turn

	total   int
	closing bool

	depthGauges map[string]*obs.Gauge
}

type tenantQueue struct {
	items []any
}

// NewScheduler builds a scheduler with the given per-tenant queue bound
// (min 1) and WRR weights (tenants absent from weights get weight 1;
// weights below 1 are raised to 1).
func NewScheduler(perTenantCap int, weights map[string]int) *Scheduler {
	if perTenantCap < 1 {
		perTenantCap = 1
	}
	w := make(map[string]int, len(weights))
	for id, v := range weights {
		if v > 0 {
			w[id] = v
		}
	}
	s := &Scheduler{
		perTenantCap:  perTenantCap,
		weights:       w,
		defaultWeight: 1,
		queues:        map[string]*tenantQueue{},
		depthGauges:   map[string]*obs.Gauge{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *Scheduler) weightOf(id string) int {
	if w, ok := s.weights[id]; ok {
		return w
	}
	return s.defaultWeight
}

// gaugeFor lazily resolves the tenant's queue-depth gauge; callers hold
// s.mu. Cardinality is bounded by the tenants ever seen, which the serving
// layer bounds via ID validation and its LRU active set.
func (s *Scheduler) gaugeFor(id string) *obs.Gauge {
	g, ok := s.depthGauges[id]
	if !ok {
		g = obs.G("server.tenant.queue.depth." + id)
		s.depthGauges[id] = g
	}
	return g
}

// Submit enqueues item on tenant id's queue. It never blocks: a full
// tenant queue returns ErrQueueFull immediately (per-tenant backpressure),
// a closed scheduler ErrSchedulerClosed.
func (s *Scheduler) Submit(id string, item any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrSchedulerClosed
	}
	q := s.queues[id]
	if q == nil {
		q = &tenantQueue{}
		s.queues[id] = q
		s.ring = append(s.ring, id)
	}
	if len(q.items) >= s.perTenantCap {
		mSchedRejected.Inc()
		return ErrQueueFull
	}
	q.items = append(q.items, item)
	s.total++
	mSchedQueued.Set(float64(s.total))
	s.gaugeFor(id).Set(float64(len(q.items)))
	s.cond.Signal()
	return nil
}

// Next blocks until an item is available and returns it with its tenant.
// After Close, remaining items drain in fair order; once empty, Next
// returns ok=false and workers should exit.
func (s *Scheduler) Next() (item any, id string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.total > 0 {
			return s.dequeueLocked()
		}
		if s.closing {
			return nil, "", false
		}
		s.cond.Wait()
	}
}

// dequeueLocked advances the weighted rotation to the next eligible tenant
// and pops one item. Callers hold s.mu and have checked total > 0.
func (s *Scheduler) dequeueLocked() (any, string, bool) {
	// total > 0 guarantees some queue is non-empty, and every non-serving
	// visit either drops an emptied ring entry or resets a slot's turn
	// counter, so the scan serves within two rotations.
	for {
		if s.pos >= len(s.ring) {
			s.pos, s.served = 0, 0
		}
		id := s.ring[s.pos]
		q := s.queues[id]
		if len(q.items) == 0 || s.served >= s.weightOf(id) {
			s.advanceLocked(len(q.items) == 0)
			continue
		}
		item := q.items[0]
		q.items[0] = nil
		q.items = q.items[1:]
		s.served++
		s.total--
		mSchedQueued.Set(float64(s.total))
		s.gaugeFor(id).Set(float64(len(q.items)))
		if len(q.items) == 0 {
			s.advanceLocked(true)
		} else if s.served >= s.weightOf(id) {
			s.advanceLocked(false)
		}
		return item, id, true
	}
}

// advanceLocked moves the rotation past the current slot, dropping the
// tenant's ring entry when its queue emptied (it re-enters at the ring's
// tail on the next Submit, keeping ring size bounded by tenants with
// queued work).
func (s *Scheduler) advanceLocked(drop bool) {
	if drop && s.pos < len(s.ring) {
		id := s.ring[s.pos]
		if q := s.queues[id]; q != nil && len(q.items) == 0 {
			delete(s.queues, id)
			s.ring = append(s.ring[:s.pos], s.ring[s.pos+1:]...)
			s.served = 0
			if s.pos >= len(s.ring) {
				s.pos = 0
			}
			return
		}
	}
	s.pos++
	s.served = 0
	if s.pos >= len(s.ring) {
		s.pos = 0
	}
}

// Depths snapshots every non-empty queue's depth.
func (s *Scheduler) Depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.queues))
	for id, q := range s.queues {
		if len(q.items) > 0 {
			out[id] = len(q.items)
		}
	}
	return out
}

// Close stops accepting submissions. Queued items still drain through
// Next; once empty, Next returns ok=false.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
