package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// parkWaiters starts n WaitLocked waiters on cv, one at a time so the
// queue order is known, and returns their completion channels in
// enqueue order plus the shared mutex. Each waiter loops on the gen
// predicate, so a spurious continuation would re-wait instead of
// completing.
func parkWaiters(t *testing.T, cv *CondVar, m *syncx.Mutex, gen *int, n int) []chan struct{} {
	t.Helper()
	done := make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		ch := done[i]
		go func() {
			m.Lock()
			g := *gen
			for *gen == g {
				cv.WaitLocked(m)
			}
			m.Unlock()
			close(ch)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for cv.Len() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never enqueued (Len=%d)", i, cv.Len())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return done
}

func collectAll(t *testing.T, done []chan struct{}, what string) {
	t.Helper()
	for i, ch := range done {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waiter %d never woke", what, i)
		}
	}
}

// A batched NotifyAll must wake every waiter exactly once — the commit
// handler's serial post loop, under either queue order and with or
// without pooled nodes — and leave the queue and depth gauge empty.
func TestNotifyAllBatchedConservation(t *testing.T) {
	const waiters = 64
	cases := []struct {
		name string
		opts Options
	}{
		{"serial wake", Options{}},
		{"LIFO", Options{Policy: LIFO}},
		{"no node pool", Options{NoNodePool: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := stm.NewEngine(stm.Config{})
			cv := New(e, tc.opts)
			st := &CVStats{}
			cv.SetStats(st)

			var m syncx.Mutex
			gen := 0
			done := parkWaiters(t, cv, &m, &gen, waiters)
			m.Lock()
			gen++
			m.Unlock()
			if n := cv.NotifyAll(nil); n != waiters {
				t.Fatalf("NotifyAll = %d, want %d", n, waiters)
			}
			collectAll(t, done, "broadcast")
			if n := cv.Len(); n != 0 {
				t.Errorf("Len = %d after broadcast, want 0", n)
			}
			if d := cv.Depth(); d != 0 {
				t.Errorf("Depth = %d after broadcast, want 0", d)
			}
			snap := st.Snapshot()
			if snap["woken"] != waiters || snap["waits"] != waiters {
				t.Errorf("woken/waits = %d/%d, want %d/%d", snap["woken"], snap["waits"], waiters, waiters)
			}
			if snap["notify_alls"] != 1 {
				t.Errorf("notify_alls = %d, want 1", snap["notify_alls"])
			}
			if snap["sem_posts"] != waiters {
				t.Errorf("sem_posts = %d, want %d (exactly one post per waiter)", snap["sem_posts"], waiters)
			}
			h := st.Histograms()
			if h["wake_batch"].Count != 1 || h["wake_batch"].Max != waiters {
				t.Errorf("wake_batch = %+v, want one batch of %d", h["wake_batch"], waiters)
			}
			if h["broadcast_ns"].Count != 1 {
				t.Errorf("broadcast_ns count = %d, want 1 (last wake observes the batch)", h["broadcast_ns"].Count)
			}
			if h["queue_depth"].Count != waiters || h["queue_depth"].Max != waiters {
				t.Errorf("queue_depth = %+v, want %d descending observations from %d", h["queue_depth"], waiters, waiters)
			}
		})
	}
}

// NotifyN pacing: a partial batch wakes exactly the first max waiters in
// queue order and leaves the rest enqueued.
func TestNotifyNPartialBatch(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	var m syncx.Mutex
	gen := 0
	done := parkWaiters(t, cv, &m, &gen, 6)
	m.Lock()
	gen++
	m.Unlock()

	if n := cv.NotifyN(nil, 0); n != 0 {
		t.Fatalf("NotifyN(0) = %d, want 0", n)
	}
	if n := cv.NotifyN(nil, 4); n != 4 {
		t.Fatalf("NotifyN(4) = %d, want 4", n)
	}
	collectAll(t, done[:4], "paced")
	// The tail of the queue must still be parked.
	time.Sleep(5 * time.Millisecond)
	for i := 4; i < 6; i++ {
		select {
		case <-done[i]:
			t.Fatalf("waiter %d woke before its NotifyN turn (FIFO violated)", i)
		default:
		}
	}
	if n := cv.Len(); n != 2 {
		t.Fatalf("Len = %d after NotifyN(4), want 2", n)
	}
	if d := cv.Depth(); d != 2 {
		t.Fatalf("Depth = %d after NotifyN(4), want 2", d)
	}
	if n := cv.NotifyN(nil, -1); n != 2 {
		t.Fatalf("NotifyN(-1) = %d, want 2", n)
	}
	collectAll(t, done[4:], "drain")
	snap := st.Snapshot()
	if snap["woken"] != 6 {
		t.Errorf("woken = %d, want 6", snap["woken"])
	}
	h := st.Histograms()
	if h["wake_batch"].Count != 2 {
		t.Errorf("wake_batch count = %d, want 2 batches", h["wake_batch"].Count)
	}
}

// A batched NotifyAll inside a transaction that aborts wakes nobody and
// leaves the queue intact — the single commit handler is discarded with
// the transaction, exactly like the per-node handlers were.
func TestNotifyAllBatchAbortDiscards(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	tr := obs.NewTracer(4096)
	e.SetTracer(tr)
	tr.Enable()
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	var m syncx.Mutex
	gen := 0
	done := parkWaiters(t, cv, &m, &gen, 3)

	sentinel := errAbortProvoked
	err := e.Atomic(func(tx *stm.Tx) {
		if n := cv.NotifyAll(tx); n != 3 {
			t.Errorf("NotifyAll in doomed txn = %d, want 3", n)
		}
		tx.Cancel(sentinel)
	})
	if err == nil {
		t.Fatal("doomed transaction committed")
	}
	if n := cv.Len(); n != 3 {
		t.Fatalf("Len = %d after aborted broadcast, want 3", n)
	}
	if d := cv.Depth(); d != 3 {
		t.Fatalf("Depth = %d after aborted broadcast, want 3", d)
	}
	got := traceCounts(tr)
	if got[obs.EvCVNotify] != 0 || got[obs.EvCVSemPost] != 0 {
		t.Fatalf("aborted broadcast leaked notify events: %v", got)
	}
	if st.Histograms()["wake_batch"].Count != 0 {
		t.Fatal("aborted broadcast observed a wake batch")
	}

	// Commit it for real: the full chain appears for every waiter.
	m.Lock()
	gen++
	m.Unlock()
	e.MustAtomic(func(tx *stm.Tx) {
		if n := cv.NotifyAll(tx); n != 3 {
			t.Errorf("committed NotifyAll = %d, want 3", n)
		}
	})
	collectAll(t, done, "post-abort")
	tr.Disable()
	got = traceCounts(tr)
	for _, want := range []obs.EventType{obs.EvCVNotify, obs.EvCVSemPost, obs.EvCVWake} {
		if got[want] != 3 {
			t.Errorf("%s count = %d, want 3 (all: %v)", want, got[want], got)
		}
	}
}

// The batch commit handler must detect a recycled node (ABA) exactly as
// the single-node path does: wakeCommitted against a stale generation
// capture panics under the sanitizer.
func TestSanitizerBatchRecycledNode(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	e.SetDebugChecks(true)
	cv := New(e, Options{})

	n := cv.acquireNode()
	staleGen := n.gen.Load()
	n.gen.Add(1) // the node was recycled after the dequeue captured staleGen

	defer func() {
		if recover() == nil {
			t.Fatal("wakeCommitted against a recycled node did not panic under the sanitizer")
		}
	}()
	cv.wakeCommitted([]*Node{n}, []uint64{staleGen})
}

var errAbortProvoked = errProvoked{}

type errProvoked struct{}

func (errProvoked) Error() string { return "provoked abort" }
