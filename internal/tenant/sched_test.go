package tenant

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSchedulerPerTenantBackpressure(t *testing.T) {
	s := NewScheduler(2, nil)
	for i := 0; i < 2; i++ {
		if err := s.Submit("a", i); err != nil {
			t.Fatalf("Submit a#%d: %v", i, err)
		}
	}
	if err := s.Submit("a", 99); err != ErrQueueFull {
		t.Fatalf("Submit beyond cap = %v, want ErrQueueFull", err)
	}
	// Tenant a's full queue must not block tenant b.
	if err := s.Submit("b", 0); err != nil {
		t.Fatalf("Submit b while a is full: %v", err)
	}
	if got := s.Depths(); got["a"] != 2 || got["b"] != 1 {
		t.Fatalf("Depths() = %v", got)
	}
}

// TestSchedulerFairness pins the WRR bound from the Scheduler doc: tenant a
// floods its queue, tenant b submits k jobs afterwards, and b's last job
// still dequeues within ceil(k/w_b)*w_a + k slots.
func TestSchedulerFairness(t *testing.T) {
	weights := map[string]int{"a": 1, "b": 2}
	s := NewScheduler(100, weights)

	const flood = 60
	for i := 0; i < flood; i++ {
		if err := s.Submit("a", fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const k = 6
	for i := 0; i < k; i++ {
		if err := s.Submit("b", fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Drain sequentially and record the dequeue position of b's last job.
	lastB := -1
	for pos := 0; pos < flood+k; pos++ {
		_, id, ok := s.Next()
		if !ok {
			t.Fatalf("Next returned !ok at position %d", pos)
		}
		if id == "b" {
			lastB = pos
		}
	}
	// Bound: ceil(k/w_b) * w_a + k = ceil(6/2)*1 + 6 = 9 jobs dequeued by
	// the time b's k-th job is served, i.e. position <= 8.
	bound := (k+1)/2*1 + k - 1
	if lastB < 0 || lastB > bound {
		t.Fatalf("b's last job dequeued at position %d, want <= %d (WRR bound)", lastB, bound)
	}
}

func TestSchedulerWeightedInterleaving(t *testing.T) {
	s := NewScheduler(100, map[string]int{"a": 2, "b": 1})
	for i := 0; i < 4; i++ {
		s.Submit("a", i)
	}
	for i := 0; i < 2; i++ {
		s.Submit("b", i)
	}
	var order []string
	for i := 0; i < 6; i++ {
		_, id, ok := s.Next()
		if !ok {
			t.Fatalf("Next !ok at %d", i)
		}
		order = append(order, id)
	}
	want := []string{"a", "a", "b", "a", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerDrainAfterClose(t *testing.T) {
	s := NewScheduler(10, nil)
	s.Submit("a", 1)
	s.Submit("b", 2)
	s.Close()
	if err := s.Submit("a", 3); err != ErrSchedulerClosed {
		t.Fatalf("Submit after Close = %v, want ErrSchedulerClosed", err)
	}
	seen := 0
	for {
		_, _, ok := s.Next()
		if !ok {
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("drained %d items after Close, want 2", seen)
	}
}

func TestSchedulerBlocksUntilSubmit(t *testing.T) {
	s := NewScheduler(10, nil)
	got := make(chan any, 1)
	go func() {
		item, _, ok := s.Next()
		if ok {
			got <- item
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the worker park in Next
	s.Submit("a", "wake")
	select {
	case item := <-got:
		if item != "wake" {
			t.Fatalf("got %v", item)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on Submit")
	}
}

// TestSchedulerConcurrent hammers Submit/Next from many goroutines under
// -race and checks conservation: every accepted item is dequeued exactly
// once.
func TestSchedulerConcurrent(t *testing.T) {
	s := NewScheduler(1000, map[string]int{"t0": 3})
	const producers, perProducer = 8, 200

	var acceptedMu sync.Mutex
	accepted := 0

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", p%4)
			for i := 0; i < perProducer; i++ {
				if err := s.Submit(id, [2]int{p, i}); err == nil {
					acceptedMu.Lock()
					accepted++
					acceptedMu.Unlock()
				}
			}
		}(p)
	}

	var consumed sync.WaitGroup
	var drainedMu sync.Mutex
	drained := 0
	for w := 0; w < 4; w++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				_, _, ok := s.Next()
				if !ok {
					return
				}
				drainedMu.Lock()
				drained++
				drainedMu.Unlock()
			}
		}()
	}

	wg.Wait()
	s.Close()
	consumed.Wait()
	if drained != accepted {
		t.Fatalf("drained %d items, accepted %d", drained, accepted)
	}
}
