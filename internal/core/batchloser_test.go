package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
	"repro/internal/waketrace"
)

// Batch-drain edge case (DESIGN.md §15): a timeout/cancel loser in the
// MIDDLE of a committed broadcast must keep the post the batch handler
// owes it — it returns notified, its wake is attributed to the loser
// kind (by=timeout / by=cancel) — and the waiter queued behind it must
// still wake. The reconstructed wake DAG is one flat flow: one root and
// three notifier-posted hops (poster 0, hop 0), posted in queue order.
//
// Choreography: three waiters enqueue in order (A live, B a loser, C
// live), and a 100%-rate CVNotify delay stalls every committed post long
// enough that B's timeout/cancel fires after the batch dequeued it but
// before the handler reaches B's post — B loses the unlink race and must
// consume the permit instead of abandoning it.
func testBatchDrainThroughLoser(t *testing.T, wantBy int64,
	startLoser func(cv *CondVar, m *syncx.Mutex, res chan<- bool)) {
	// Each stall is drawn in [postStall/2, postStall], so B's post lands
	// at least postStall after the commit — past B's 150ms deadline.
	const postStall = 200 * time.Millisecond

	e := stm.NewEngine(stm.Config{})
	in := fault.New(0xC4A15).Set(fault.CVNotify,
		fault.Rule{Rate: 1.0, Action: fault.ActDelay, Delay: postStall})
	e.SetFault(in)
	tr := obs.NewTracer(4096)
	e.SetTracer(tr)
	tr.Enable()
	var st CVStats
	cv := New(e, Options{})
	cv.SetStats(&st)

	var m syncx.Mutex
	live := make(chan struct{}, 2)
	loser := make(chan bool, 1)
	// A: live waiter, head of the queue.
	go func() {
		m.Lock()
		// cvlint:ignore waitloop harness parks one-shot waiters by design to pin queue positions
		cv.WaitLocked(&m)
		m.Unlock()
		live <- struct{}{}
	}()
	waitUntil(t, "A enqueued", func() bool { return cv.Depth() == 1 })
	// B: the mid-batch loser.
	startLoser(cv, &m, loser)
	waitUntil(t, "B enqueued", func() bool { return cv.Depth() == 2 })
	// C: live waiter, tail of the queue.
	go func() {
		m.Lock()
		// cvlint:ignore waitloop harness parks one-shot waiters by design to pin queue positions
		cv.WaitLocked(&m)
		m.Unlock()
		live <- struct{}{}
	}()
	waitUntil(t, "C enqueued", func() bool { return cv.Depth() == 3 })

	in.Arm()
	defer in.Disarm()
	// cvlint:ignore nakednotify the test notifies with no predicate: the batch drain itself is the subject
	if n := cv.NotifyAll(nil); n != 3 {
		t.Fatalf("NotifyAll woke %d, want 3", n)
	}

	deadline := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-live:
		case <-deadline:
			t.Fatal("batch did not drain: a live waiter never woke")
		}
	}
	select {
	case ok := <-loser:
		if !ok {
			t.Fatal("loser reported un-notified: its banked wake was lost")
		}
	case <-deadline:
		t.Fatal("loser never returned")
	}
	tr.Disable()

	// Consumer attribution: two live waiters, one loser of the expected
	// kind — and the loser still counts as a completed wait.
	snap := st.Snapshot()
	if snap["wake_consumed_waiter"] != 2 {
		t.Errorf("wake_consumed_waiter = %d, want 2", snap["wake_consumed_waiter"])
	}
	loserKind := obs.WakeConsumerName(wantBy)
	if key := "wake_consumed_" + loserKind; snap[key] != 1 {
		t.Errorf("%s = %d, want 1 (snapshot %v)", key, snap[key], snap)
	}
	if snap["waits"] != 3 {
		t.Errorf("waits = %d, want 3", snap["waits"])
	}
	if h := st.Histograms(); h["broadcast_ns"].Count != 1 {
		t.Errorf("broadcast_ns count = %d, want 1 (the loser counts the batch down too)", h["broadcast_ns"].Count)
	}

	// The reconstructed DAG: one flat flow, root batch 3, three
	// notifier-posted hops in queue order, the loser's consume second.
	dags := waketrace.Build(waketrace.FromObs(tr.Events()))
	if len(dags) != 1 {
		t.Fatalf("reconstructed %d flows, want 1", len(dags))
	}
	d := dags[0]
	if problems := waketrace.Check(dags); len(problems) != 0 {
		t.Fatalf("structural check failed: %v", problems)
	}
	if d.Batch != 3 || len(d.Hops) != 3 || len(d.Roots) != 3 || d.MaxDepth() != 1 {
		t.Fatalf("DAG shape: batch %d hops %d roots %d depth %d, want 3/3/3/1",
			d.Batch, len(d.Hops), len(d.Roots), d.MaxDepth())
	}
	for _, h := range d.Roots {
		if h.Parent != 0 || h.Index != 0 {
			t.Errorf("node %d: poster %d hop %d, want notifier-posted (0, 0)", h.Node, h.Parent, h.Index)
		}
	}
	total, by := d.Consumed()
	if total != 3 || by["waiter"] != 2 || by[loserKind] != 1 {
		t.Fatalf("consumed = %d %v, want 3 with 2 waiter + 1 %s", total, by, loserKind)
	}
	if got := d.Roots[1].By; got != loserKind {
		t.Errorf("second post consumed by %q, want the %s loser (queue order A, B, C)", got, loserKind)
	}
}

func TestBatchDrainsThroughTimeoutLoser(t *testing.T) {
	testBatchDrainThroughLoser(t, obs.WakeByTimeout,
		func(cv *CondVar, m *syncx.Mutex, res chan<- bool) {
			go func() {
				m.Lock()
				// Expires after the batch dequeue commits but before the
				// handler's two stalled posts (A's, then B's) complete.
				// cvlint:ignore waitloop harness probes the timeout-loser drain one-shot by design
				ok := cv.WaitLockedTimeout(m, 150*time.Millisecond)
				m.Unlock()
				res <- ok
			}()
		})
}

func TestBatchDrainsThroughCancelLoser(t *testing.T) {
	testBatchDrainThroughLoser(t, obs.WakeByCancel,
		func(cv *CondVar, m *syncx.Mutex, res chan<- bool) {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			go func() {
				defer cancel()
				m.Lock()
				// cvlint:ignore waitloop harness probes the cancel-loser drain one-shot by design
				ok := cv.WaitLockedCtx(m, ctx)
				m.Unlock()
				res <- ok
			}()
		})
}
