package sem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPostNWakesBlockedWaiters(t *testing.T) {
	s := NewBinary()
	const n = 5
	var woke atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Wait()
			woke.Add(1)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Waiters() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d parked", s.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
	s.PostN(n)
	wg.Wait()
	if woke.Load() != n {
		t.Fatalf("woke = %d", woke.Load())
	}
	if s.Value() != 0 {
		t.Fatalf("leftover permits: %d", s.Value())
	}
}

func TestTimeoutStats(t *testing.T) {
	var st Stats
	s := NewBinary()
	s.SetStats(&st)
	if s.WaitTimeout(5 * time.Millisecond) {
		t.Fatal("acquired from empty semaphore")
	}
	if st.Timeouts.Load() != 1 {
		t.Fatalf("Timeouts = %d", st.Timeouts.Load())
	}
}

func TestMixedTimedAndUntimedWaiters(t *testing.T) {
	s := NewBinary()
	var timedOut, acquired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.WaitTimeout(20 * time.Millisecond) {
				acquired.Add(1)
			} else {
				timedOut.Add(1)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Wait()
			acquired.Add(1)
		}()
	}
	time.Sleep(60 * time.Millisecond) // all timed waiters expire
	// Now wake the untimed ones.
	s.PostN(4)
	wg.Wait()
	if timedOut.Load() != 4 || acquired.Load() != 4 {
		t.Fatalf("timedOut=%d acquired=%d, want 4/4", timedOut.Load(), acquired.Load())
	}
	if s.Value() != 0 {
		t.Fatalf("leftover permits: %d", s.Value())
	}
}

func TestHandOffNoBarging(t *testing.T) {
	// The direct hand-off property: a permit posted while someone waits
	// goes to the waiter even if another goroutine races a TryWait.
	for i := 0; i < 100; i++ {
		s := NewBinary()
		got := make(chan struct{})
		go func() {
			s.Wait()
			close(got)
		}()
		for s.Waiters() != 1 {
			time.Sleep(100 * time.Microsecond)
		}
		s.Post()
		if s.TryWait() {
			t.Fatal("TryWait stole a handed-off permit")
		}
		<-got
	}
}

// Permits are conserved under a post/wait churn that races every Post's
// bank-or-hand-off decision against concurrent enqueues. A lost wake-up
// shows up as a hang (untimed Wait), so the whole churn runs under a
// watchdog.
func TestLaneConservationChurn(t *testing.T) {
	s := NewBinary()

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Post()
				s.Wait()
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("churn hung: %d waiters parked, %d banked — lost wake-up",
			s.Waiters(), s.Value())
	}
	if got := s.Value(); got != 0 {
		t.Fatalf("Value = %d after balanced churn, want 0", got)
	}
	if got := s.Waiters(); got != 0 {
		t.Fatalf("Waiters = %d after balanced churn, want 0", got)
	}
}
