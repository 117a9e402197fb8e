package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

// Job-manager metric handles (see DESIGN.md §7/§8). Queue depth and
// rejection counts live in tenant.Scheduler, which owns the queues.
var (
	mJobsSubmitted = obs.C("server.jobs.submitted")
	mJobsDone      = obs.C("server.jobs.done")
	mJobsFailed    = obs.C("server.jobs.failed")
	mJobsCancelled = obs.C("server.jobs.cancelled")
	mJobLatency    = obs.H("server.jobs.latency")
)

// JobState is a tuning job's lifecycle state. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled                      (cancelled before a worker picked it up)
//
// Terminal states never change again.
type JobState string

// Job states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID         string     `json:"id"`
	Tenant     string     `json:"tenant,omitempty"`
	State      JobState   `json:"state"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     any        `json:"result,omitempty"`
}

// maxFinishedJobs bounds how many finished jobs, with their results, the
// table keeps for clients to poll. Past it the job that finished longest
// ago is forgotten and answers 404; queued and running jobs are never
// dropped.
const maxFinishedJobs = 1024

// job is one asynchronous unit of work.
type job struct {
	id     string
	seq    int // submission order
	tenant string
	run    func(ctx context.Context) (any, error)

	// ctx is derived from the manager's base context; cancel aborts the
	// job whether queued or running.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	err      string
}

// status snapshots the job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Tenant: j.tenant, State: j.state, CreatedAt: j.created, Error: j.err, Result: j.result}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// jobs runs tuning work from per-tenant bounded queues drained by a fixed
// worker pool in weighted round-robin order (tenant.Scheduler), so one
// tenant flooding its queue delays its own jobs, not its neighbours'.
type jobs struct {
	sched *tenant.Scheduler
	wg    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	byID map[string]*job
	// finished holds the terminal jobs still in byID, oldest first.
	finished []*job
	nextID   int
}

// newJobs starts a manager with the given worker count, per-tenant queue
// capacity, and WRR weights (nil = every tenant weight 1).
func newJobs(workers, perTenantCap int, weights map[string]int) *jobs {
	if workers < 1 {
		workers = 1
	}
	base, cancel := context.WithCancel(context.Background())
	m := &jobs{
		sched:      tenant.NewScheduler(perTenantCap, weights),
		baseCtx:    base,
		baseCancel: cancel,
		byID:       map[string]*job{},
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

func (m *jobs) worker() {
	defer m.wg.Done()
	for {
		item, _, ok := m.sched.Next()
		if !ok {
			return
		}
		m.execute(item.(*job))
	}
}

// execute runs one job to a terminal state. A job cancelled while queued is
// skipped; a job whose context is cancelled mid-run lands in "cancelled"
// rather than "failed" so clients can tell aborts from errors.
func (m *jobs) execute(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	result, err := j.run(j.ctx)

	j.mu.Lock()
	j.finished = time.Now()
	mJobLatency.Observe(j.finished.Sub(j.started).Seconds())
	switch {
	case err == nil:
		j.state = JobDone
		j.result = result
		mJobsDone.Inc()
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.state = JobCancelled
		j.err = context.Cause(j.ctx).Error()
		mJobsCancelled.Inc()
	default:
		j.state = JobFailed
		j.err = err.Error()
		mJobsFailed.Inc()
	}
	j.mu.Unlock()
	m.retire(j)
}

// retire records that j reached a terminal state and forgets the finished
// jobs beyond maxFinishedJobs, the one that finished longest ago first.
// Callers must not hold j.mu: the table lock is taken before job locks.
func (m *jobs) retire(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, j)
	if len(m.finished) > maxFinishedJobs {
		delete(m.byID, m.finished[0].id)
		m.finished[0] = nil
		m.finished = m.finished[1:]
	}
}

// submit enqueues fn on tenantID's queue. It never blocks: a full tenant
// queue returns tenant.ErrQueueFull immediately (per-tenant backpressure
// for the HTTP layer to surface as 429; other tenants keep submitting),
// and after drain began it returns tenant.ErrSchedulerClosed.
func (m *jobs) submit(tenantID string, fn func(ctx context.Context) (any, error)) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	ctx, cancel := context.WithCancelCause(m.baseCtx)
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.nextID),
		seq:     m.nextID,
		tenant:  tenantID,
		run:     fn,
		ctx:     ctx,
		cancel:  func() { cancel(errors.New("job cancelled")) },
		state:   JobQueued,
		created: time.Now(),
	}
	if err := m.sched.Submit(tenantID, j); err != nil {
		cancel(nil)
		m.nextID-- // the id was never visible; reuse it
		return nil, err
	}
	m.byID[j.id] = j
	mJobsSubmitted.Inc()
	return j, nil
}

// get returns a job by id, or nil.
func (m *jobs) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byID[id]
}

// list snapshots the status of every job in the table in submission
// order; tenantID filters to one tenant ("" = all).
func (m *jobs) list(tenantID string) []JobStatus {
	m.mu.Lock()
	js := make([]*job, 0, len(m.byID))
	for _, j := range m.byID {
		if tenantID == "" || j.tenant == tenantID {
			js = append(js, j)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(js, func(a, b *job) int { return a.seq - b.seq })
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// cancelJob cancels a job. Queued jobs go terminal immediately; running
// jobs get their context cancelled and go terminal when the tuner unwinds.
// Returns false when the job is already terminal.
func (m *jobs) cancelJob(j *job) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	wasQueued := j.state == JobQueued
	if wasQueued {
		j.state = JobCancelled
		j.finished = time.Now()
		j.err = "job cancelled"
		mJobsCancelled.Inc()
	}
	j.mu.Unlock()
	if wasQueued {
		m.retire(j)
	}
	// Cancel the context outside the job lock: a running job's tuner
	// observes it and returns; execute() then marks the terminal state.
	j.cancel()
	return true
}

// counts tallies the table's jobs by state for /healthz; tenantID filters
// to one tenant ("" = all).
func (m *jobs) counts(tenantID string) map[JobState]int {
	out := map[JobState]int{}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.byID {
		if tenantID != "" && j.tenant != tenantID {
			continue
		}
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// drain stops accepting new jobs and waits for in-flight ones. Queued jobs
// still run (the queues drain in fair order, they are not dropped) unless
// ctx expires first, in which case every remaining job is cancelled and
// drain waits for the workers to unwind before returning ctx's error. A
// second drain finds the workers gone and returns at once.
func (m *jobs) drain(ctx context.Context) error {
	m.sched.Close()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel() // cancel running jobs and anything still queued
		<-done
		return ctx.Err()
	}
}
