package sem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// parkN parks n fresh waiters on s and returns their completion
// channels in enqueue (FIFO) order. Each waiter is enqueued strictly
// after the previous one so the queue order is known.
func parkN(t *testing.T, s *Sem, n int) []chan struct{} {
	t.Helper()
	done := make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		ch := done[i]
		ready := make(chan struct{})
		go func() {
			close(ready)
			s.Wait()
			close(ch)
		}()
		<-ready
		deadline := time.Now().Add(2 * time.Second)
		for s.Waiters() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never enqueued (Waiters=%d)", i, s.Waiters())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return done
}

func waitClosed(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never woke", what)
	}
}

// A PostN over parked waiters must wake exactly that many, in a single
// batch, conserving every permit: surplus permits are banked.
func TestPostNBatchConservation(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)

	const waiters = 64
	done := parkN(t, s, waiters)
	s.PostN(waiters)
	for _, ch := range done {
		waitClosed(t, ch, "waiter")
	}
	if v := s.Value(); v != 0 {
		t.Errorf("Value = %d after exact batch, want 0", v)
	}
	if got := st.Posts.Load(); got != waiters {
		t.Errorf("Posts = %d, want %d", got, waiters)
	}
	if got := st.Waits.Load(); got != waiters {
		t.Errorf("Waits = %d, want %d", got, waiters)
	}

	// Surplus: 8 waiters, 12 permits — all wake, 4 banked.
	done = parkN(t, s, 8)
	s.PostN(12)
	for _, ch := range done {
		waitClosed(t, ch, "surplus waiter")
	}
	if v := s.Value(); v != 4 {
		t.Errorf("Value = %d after surplus batch, want 4", v)
	}
	// PostN(0) and PostN(-1) are no-ops.
	s.PostN(0)
	s.PostN(-1)
	if v := s.Value(); v != 4 {
		t.Errorf("Value = %d after no-op PostN, want 4", v)
	}
}

// A partial batch must detach from the head of the queue: the two
// longest-waiting goroutines wake, the rest stay parked (FIFO
// fairness of the batched path).
func TestPostNFIFOFairness(t *testing.T) {
	s := NewBinary()
	done := parkN(t, s, 4)

	s.PostN(2)
	waitClosed(t, done[0], "first waiter")
	waitClosed(t, done[1], "second waiter")
	// The tail must still be parked.
	time.Sleep(5 * time.Millisecond)
	for i := 2; i < 4; i++ {
		select {
		case <-done[i]:
			t.Fatalf("waiter %d woke before its turn", i)
		default:
		}
	}
	if n := s.Waiters(); n != 2 {
		t.Fatalf("Waiters = %d after partial batch, want 2", n)
	}
	s.PostN(2)
	waitClosed(t, done[2], "third waiter")
	waitClosed(t, done[3], "fourth waiter")
}

// The PostN doc contract: one fault.SemPost draw per batch, not per
// permit.
func TestPostNSingleFaultDraw(t *testing.T) {
	s := NewBinary()
	in := fault.New(1)
	in.Arm()
	s.SetFault(in)

	done := parkN(t, s, 8)
	s.PostN(8)
	for _, ch := range done {
		waitClosed(t, ch, "faulted waiter")
	}
	if got := in.Drawn(fault.SemPost); got != 1 {
		t.Errorf("PostN(8) drew the SemPost hook %d times, want 1", got)
	}
	s.Post()
	if got := in.Drawn(fault.SemPost); got != 2 {
		t.Errorf("Post after batch: SemPost draws = %d, want 2", got)
	}
	if got := in.Drawn(fault.SemPark); got != 8 {
		t.Errorf("SemPark draws = %d, want 8 (one per parked waiter)", got)
	}
}

// Conservation under churn: timed waiters racing a batching poster never
// lose a permit — every posted permit is either consumed by a successful
// WaitTimeout (including timeout-losers that keep a raced permit) or
// left banked. This hammers the batched hand-off to dequeued waiters
// that are concurrently timing out.
func TestPostNTimeoutRaceConservation(t *testing.T) {
	s := NewBinary()
	const workers = 16
	var (
		succ  atomic.Int64
		done  atomic.Bool
		total int64
		wg    sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := time.Duration(i%4) * 500 * time.Microsecond
			for !done.Load() {
				if s.WaitTimeout(d) {
					succ.Add(1)
				}
			}
		}(i)
	}
	for i := 0; i < 300; i++ {
		k := i%7 + 1
		s.PostN(k)
		total += int64(k)
		if i%16 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	// Let in-flight hand-offs drain before stopping the workers, then
	// stop and tally.
	time.Sleep(20 * time.Millisecond)
	done.Store(true)
	wg.Wait()
	if got := succ.Load() + s.Value(); got != total {
		t.Errorf("permits not conserved: %d consumed + %d banked != %d posted",
			succ.Load(), s.Value(), total)
	}
}

// The adaptive spin budget: deterministic tuner envelope, and the
// regression the ISSUE asks for — a waiter with no incoming post parks
// instead of busy-waiting, and a slow hand-off decays the budget.
func TestSpinBudgetTuner(t *testing.T) {
	s := NewBinary()
	if got := s.spin.Load(); got != 0 {
		t.Fatalf("fresh semaphore has spin budget %d, want 0", got)
	}
	// On a single-P runtime the budget must pin to zero regardless of
	// hand-off latency: the Gosched-polled spin can never overlap a
	// poster there (the ISSUE's GOMAXPROCS==1 CPU-burn fix).
	s.procs.Store(1)
	s.spin.Store(spinLimit)
	s.tuneSpin(time.Microsecond)
	if got := s.spin.Load(); got != 0 {
		t.Fatalf("budget = %d after fast hand-off at procs==1, want pinned 0", got)
	}
	// With parallelism the adaptive envelope applies.
	s.procs.Store(4)
	// Fast hand-offs grow the budget geometrically up to the cap.
	prev := int32(0)
	for i := 0; i < 10; i++ {
		s.tuneSpin(time.Microsecond)
		b := s.spin.Load()
		if b <= prev && prev < spinLimit {
			t.Fatalf("budget did not grow on fast hand-off: %d -> %d", prev, b)
		}
		if b > spinLimit {
			t.Fatalf("budget %d exceeds spinLimit %d", b, spinLimit)
		}
		prev = b
	}
	if prev != spinLimit {
		t.Fatalf("budget = %d after 10 fast hand-offs, want cap %d", prev, spinLimit)
	}
	// Slow hand-offs halve it back to zero.
	for i := 0; i < 10; i++ {
		s.tuneSpin(time.Millisecond)
	}
	if got := s.spin.Load(); got != 0 {
		t.Fatalf("budget = %d after sustained slow hand-offs, want 0", got)
	}
}

// spinWait respects its budget: with no signal it returns false after a
// bounded number of polls; a signal already in the channel is consumed.
func TestSpinWaitBounded(t *testing.T) {
	w := &waiter{ch: make(chan struct{}, 1)}
	start := time.Now()
	if spinWait(w, spinLimit) {
		t.Fatal("spinWait reported a signal on an empty channel")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("spinWait(%d) took %v — unbounded spin", spinLimit, d)
	}
	w.ch <- struct{}{}
	if !spinWait(w, 1) {
		t.Fatal("spinWait missed a buffered signal")
	}
}

// A waiter that spins and finds nothing must park (descheduled, not
// burning a core), and the long park must decay the budget.
func TestSpinThenParkNoBusyWait(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)
	s.spin.Store(spinLimit) // prime the budget as if hand-offs had been fast

	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Waiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// No post is coming: the waiter must end up blocked in a park, not
	// spinning. Give the spin phase ample time to exhaust, then check
	// that the wait descheduled.
	time.Sleep(10 * time.Millisecond)
	if got := st.Blocks.Load(); got != 1 {
		t.Fatalf("Blocks = %d while no post arrives, want 1 (waiter must park)", got)
	}
	if got := st.SpinWaits.Load(); got != 0 {
		t.Fatalf("SpinWaits = %d with no post, want 0", got)
	}
	s.Post()
	waitClosed(t, done, "parked waiter")
	// The park lasted ~10ms >> spinParkThreshold: the budget must decay.
	if got := s.spin.Load(); got >= spinLimit {
		t.Errorf("spin budget %d did not decay after a %v park", got, 10*time.Millisecond)
	}
	if st.ParkNanos.Count() != 1 {
		t.Errorf("ParkNanos count = %d, want 1 (park observed)", st.ParkNanos.Count())
	}
}
