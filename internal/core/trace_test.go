package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
)

func traceCounts(tr *obs.Tracer) map[obs.EventType]int {
	m := make(map[obs.EventType]int)
	for _, ev := range tr.Events() {
		m[ev.Type]++
	}
	return m
}

// Provocation: a NotifyOne inside a transaction that ABORTS must leave no
// cv.notify/cv.sempost in the trace and wake nobody — the aborted
// attempt's events are discarded exactly like the paper defers (and
// discards) its SEMPOST. Then a committed notify produces the full
// enqueue → notify → sempost → wake chain, in the exported Chrome trace
// too, and populates the split wait-latency histograms.
func TestTraceAbortedNotifyLeavesNoEvents(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	tr := obs.NewTracer(4096)
	e.SetTracer(tr)
	tr.Enable()
	st := &CVStats{}
	cv := New(e, Options{})
	cv.SetStats(st)

	var m syncx.Mutex
	done := make(chan struct{})
	go func() {
		m.Lock()
		cv.WaitLocked(&m)
		m.Unlock()
		close(done)
	}()
	for cv.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the waiter park

	// The provocation: dequeue the waiter, then abort the transaction.
	sentinel := errors.New("provoked abort")
	err := e.Atomic(func(tx *stm.Tx) {
		if !cv.NotifyOne(tx) {
			t.Error("NotifyOne found no waiter")
		}
		tx.Cancel(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Atomic err = %v", err)
	}

	// The abort rolled the dequeue back: waiter still enqueued, not woken,
	// and the trace shows no notify-side events.
	if n := cv.Len(); n != 1 {
		t.Fatalf("after aborted notify: Len = %d, want 1", n)
	}
	if cv.Depth() != 1 {
		t.Fatalf("after aborted notify: Depth = %d, want 1", cv.Depth())
	}
	select {
	case <-done:
		t.Fatal("waiter woke from an aborted notify")
	default:
	}
	got := traceCounts(tr)
	if got[obs.EvCVNotify] != 0 || got[obs.EvCVSemPost] != 0 || got[obs.EvCVWake] != 0 {
		t.Fatalf("aborted notify leaked events: %v", got)
	}
	// The causal wake-flow events (DESIGN.md §15) obey the same
	// discipline: the wakeID is minted in the commit handler, so an
	// aborted notify never starts a flow.
	if got[obs.EvWakeRoot] != 0 || got[obs.EvWakeHop] != 0 || got[obs.EvWakeEnd] != 0 {
		t.Fatalf("aborted notify leaked wake-flow events: %v", got)
	}
	if got[obs.EvTxnAbort] == 0 {
		t.Fatal("aborted attempt left no terminal txn.abort event")
	}

	// Now commit the notify for real.
	e.MustAtomic(func(tx *stm.Tx) {
		if !cv.NotifyOne(tx) {
			t.Error("committed NotifyOne found no waiter")
		}
	})
	<-done
	tr.Disable()

	got = traceCounts(tr)
	for _, want := range []obs.EventType{obs.EvCVEnqueue, obs.EvCVNotify, obs.EvCVSemPost, obs.EvCVWake} {
		if got[want] != 1 {
			t.Errorf("%s count = %d, want 1 (all: %v)", want, got[want], got)
		}
	}
	// The committed notify minted exactly one wake flow: one root (the
	// commit handler), one notifier-posted hop, one consume by a live
	// waiter — all carrying the same non-zero wakeID.
	for _, want := range []obs.EventType{obs.EvWakeRoot, obs.EvWakeHop, obs.EvWakeEnd} {
		if got[want] != 1 {
			t.Errorf("%s count = %d, want 1 (all: %v)", want, got[want], got)
		}
	}
	var flowID uint64
	for _, ev := range tr.Events() {
		switch ev.Type {
		case obs.EvWakeRoot, obs.EvWakeHop, obs.EvWakeEnd:
			if ev.Flow == 0 {
				t.Errorf("%s carries zero flow id", ev.Type)
			}
			if flowID == 0 {
				flowID = ev.Flow
			} else if ev.Flow != flowID {
				t.Errorf("%s flow %d != first flow %d", ev.Type, ev.Flow, flowID)
			}
			if ev.Type == obs.EvWakeHop && (ev.A != 0 || ev.B != 0) {
				t.Errorf("single notify hop: parent %d hop %d, want notifier-posted (0, 0)", ev.A, ev.B)
			}
			if ev.Type == obs.EvWakeEnd && ev.B != obs.WakeByWaiter {
				t.Errorf("consume by %s, want waiter", obs.WakeConsumerName(ev.B))
			}
		}
	}
	if cv.Depth() != 0 {
		t.Errorf("final Depth = %d, want 0", cv.Depth())
	}

	// The exported Chrome trace reflects the same discipline: exactly one
	// committed notify chain, nothing from the aborted attempt.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
	}
	if names["cv.notify"] != 1 || names["cv.sempost"] != 1 {
		t.Errorf("exported trace notify chain = %v", names)
	}

	// The split wait-latency histograms populated: enqueue→notify on the
	// notifier's commit, notify→wake on the waiter's resume.
	h := st.Histograms()
	if h["enqueue_to_notify_ns"].Count != 1 {
		t.Errorf("enqueue_to_notify_ns count = %d, want 1", h["enqueue_to_notify_ns"].Count)
	}
	if h["notify_to_wake_ns"].Count != 1 {
		t.Errorf("notify_to_wake_ns count = %d, want 1", h["notify_to_wake_ns"].Count)
	}
	if h["queue_depth"].Count != 1 || h["queue_depth"].Max != 1 {
		t.Errorf("queue_depth = %+v, want one observation of depth 1", h["queue_depth"])
	}
	if h["sem_park_ns"].Count != 1 {
		t.Errorf("sem_park_ns count = %d, want 1 (waiter parked once)", h["sem_park_ns"].Count)
	}
	// waits and sem_posts are committed-side counters and must be exact;
	// notify_ones/woken count calls (the aborted NotifyOne included), so
	// they are not asserted here.
	snap := st.Snapshot()
	if snap["waits"] != 1 || snap["sem_posts"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	if snap["wake_consumed_waiter"] != 1 || snap["wake_consumed_timeout"] != 0 || snap["wake_consumed_cancel"] != 0 {
		t.Errorf("wake consumer attribution = %v", snap)
	}
}

// The committed depth gauge follows enqueues, notifies and timeout
// unlinks, and ignores aborted transactions.
func TestDepthGauge(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	cv := New(e, Options{})

	var m syncx.Mutex
	m.Lock()
	ok := cv.WaitLockedTimeout(&m, 20*time.Millisecond)
	m.Unlock()
	if ok {
		t.Fatal("timed wait reported notified with no notifier")
	}
	if cv.Depth() != 0 {
		t.Fatalf("Depth after timeout unlink = %d, want 0", cv.Depth())
	}
}

// CVStats.Snapshot and Histograms must expose every documented key, so the
// harness JSON schema is stable.
func TestCVStatsKeys(t *testing.T) {
	st := &CVStats{}
	snap := st.Snapshot()
	for _, k := range []string{"waits", "notify_ones", "notify_alls", "notify_empty", "woken", "timeouts", "max_queue", "sem_posts", "sem_blocks"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("Snapshot missing %q (have %s)", k, strings.Join(keysOf(snap), ","))
		}
	}
	h := st.Histograms()
	for _, k := range []string{"enqueue_to_notify_ns", "notify_to_wake_ns", "queue_depth", "sem_park_ns"} {
		if _, ok := h[k]; !ok {
			t.Errorf("Histograms missing %q", k)
		}
	}
}

func keysOf(m map[string]int64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
