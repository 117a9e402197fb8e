package server

import (
	"context"
	"errors"
	"maps"
	"net/http"
	"testing"
	"time"

	"repro/internal/tenant"
)

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, j *job) JobState {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.status(); st.State.Terminal() {
			return st.State
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not terminate; state %s", j.id, j.status().State)
	return ""
}

func TestJobRunsToDone(t *testing.T) {
	m := newJobs(1, 4, nil)
	defer m.drain(context.Background())
	j, err := m.submit("default", func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j); st != JobDone {
		t.Fatalf("state = %s", st)
	}
	if got := j.status().Result; got != 42 {
		t.Fatalf("result = %v", got)
	}
}

func TestJobFailure(t *testing.T) {
	m := newJobs(1, 4, nil)
	defer m.drain(context.Background())
	j, err := m.submit("default", func(ctx context.Context) (any, error) { return nil, errors.New("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j); st != JobFailed {
		t.Fatalf("state = %s", st)
	}
	if j.status().Error != "boom" {
		t.Fatalf("error = %q", j.status().Error)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := newJobs(1, 4, nil)
	defer m.drain(context.Background())
	started := make(chan struct{})
	j, err := m.submit("default", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // deterministic mid-run block until cancelled
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !m.cancelJob(j) {
		t.Fatal("cancel of a running job returned false")
	}
	if st := waitState(t, j); st != JobCancelled {
		t.Fatalf("state = %s", st)
	}
	// Cancelling a terminal job reports false.
	if m.cancelJob(j) {
		t.Fatal("cancel of a finished job returned true")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newJobs(1, 4, nil)
	defer m.drain(context.Background())
	release := make(chan struct{})
	blocker, err := m.submit("default", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.submit("default", func(ctx context.Context) (any, error) { return "ran", nil })
	if err != nil {
		t.Fatal(err)
	}
	if !m.cancelJob(queued) {
		t.Fatal("cancel of a queued job returned false")
	}
	if st := queued.status().State; st != JobCancelled {
		t.Fatalf("queued job state after cancel = %s", st)
	}
	close(release)
	if st := waitState(t, blocker); st != JobDone {
		t.Fatalf("blocker state = %s", st)
	}
	// The worker must skip the cancelled job, not run it.
	time.Sleep(10 * time.Millisecond)
	if queued.status().Result != nil {
		t.Fatal("cancelled queued job still ran")
	}
}

func TestQueueBackpressure(t *testing.T) {
	m := newJobs(1, 1, nil)
	defer m.drain(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	running, err := m.submit("default", func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the running job; the queue is empty
	if _, err := m.submit("default", func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, err := m.submit("default", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, tenant.ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	close(release)
	waitState(t, running)
}

func TestDrainWaitsAndRejectsNewWork(t *testing.T) {
	m := newJobs(2, 4, nil)
	slow, err := m.submit("default", func(ctx context.Context) (any, error) {
		time.Sleep(50 * time.Millisecond)
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := slow.status().State; st != JobDone {
		t.Fatalf("drain returned before job finished: %s", st)
	}
	if _, err := m.submit("default", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, tenant.ErrSchedulerClosed) {
		t.Fatalf("submit after drain: %v", err)
	}
	// Draining twice is a no-op.
	if err := m.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	m := newJobs(1, 4, nil)
	j, err := m.submit("default", func(ctx context.Context) (any, error) {
		<-ctx.Done() // never finishes on its own
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v", err)
	}
	if st := j.status().State; st != JobCancelled {
		t.Fatalf("straggler state = %s, want cancelled", st)
	}
}

// TestJobTableKeepsBoundedFinishedJobs submits more jobs than the table
// keeps finished: the job that finished longest ago answers 404, a
// long-running first job survives, and /healthz tallies the jobs GET
// /v1/jobs lists.
func TestJobTableKeepsBoundedFinishedJobs(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 2 })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr

	release := make(chan struct{})
	defer close(release) // runs before Shutdown, whose drain waits for the job
	long, err := s.jobs.submit(tenant.DefaultID, func(context.Context) (any, error) {
		<-release
		return "long", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5
	var fast []*job
	for i := 0; i < maxFinishedJobs+extra; i++ {
		// One job at a time, so they finish in submission order and the
		// tenant's queue never fills.
		j, err := s.jobs.submit(tenant.DefaultID, func(context.Context) (any, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, j); st != JobDone {
			t.Fatalf("job %s: state %s", j.id, st)
		}
		fast = append(fast, j)
	}

	var st JobStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+fast[extra-1].id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET the oldest finished job: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+fast[extra].id, nil, &st); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("GET the oldest kept job: %d %s, want 200 done", code, st.State)
	}
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+long.id, nil, &st); code != http.StatusOK || st.State != JobRunning {
		t.Fatalf("GET the long-running job: %d %s, want 200 running", code, st.State)
	}

	var health struct {
		Jobs map[JobState]int `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d", code)
	}
	listed := map[JobState]int{}
	for _, j := range list.Jobs {
		listed[j.State]++
	}
	want := map[JobState]int{JobRunning: 1, JobDone: maxFinishedJobs}
	if !maps.Equal(health.Jobs, want) || !maps.Equal(listed, want) {
		t.Fatalf("healthz tallies %v, GET /v1/jobs lists %v, want %v", health.Jobs, listed, want)
	}
	if list.Jobs[0].ID != long.id || list.Jobs[1].ID != fast[extra].id {
		t.Fatalf("GET /v1/jobs starts %s, %s; want submission order from %s, %s", list.Jobs[0].ID, list.Jobs[1].ID, long.id, fast[extra].id)
	}
}
