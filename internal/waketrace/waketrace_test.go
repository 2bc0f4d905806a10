package waketrace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
	"repro/internal/waketrace"
)

// broadcast runs a real 128-waiter broadcast under a tracer and returns
// the quiesced tracer: the committed handler posts every waiter itself,
// so the flow reconstructs flat — one root, every hop notifier-posted.
func broadcast(t *testing.T, waiters int) *obs.Tracer {
	t.Helper()
	e := stm.NewEngine(stm.Config{})
	tr := obs.NewTracer(1 << 16)
	e.SetTracer(tr)
	tr.Enable()
	cv := core.New(e, core.Options{}).SetName("bench.cv")

	var m syncx.Mutex
	done := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			done <- struct{}{}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for cv.Depth() != int64(waiters) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters enqueued", cv.Depth(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	if n := cv.NotifyAll(nil); n != waiters {
		t.Fatalf("NotifyAll woke %d, want %d", n, waiters)
	}
	for i := 0; i < waiters; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d never woke", i)
		}
	}
	tr.Disable()
	return tr
}

func checkDAGs(t *testing.T, dags []*waketrace.DAG, waiters int, via string) {
	t.Helper()
	if problems := waketrace.Check(dags); len(problems) != 0 {
		t.Fatalf("%s: structural check failed: %v", via, problems)
	}
	if len(dags) != 1 {
		t.Fatalf("%s: reconstructed %d flows, want 1", via, len(dags))
	}
	d := dags[0]
	if d.Batch != int64(waiters) {
		t.Errorf("%s: root batch %d, want %d", via, d.Batch, waiters)
	}
	if len(d.Hops) != waiters {
		t.Errorf("%s: %d hops, want %d", via, len(d.Hops), waiters)
	}
	if len(d.Orphans) != 0 {
		t.Errorf("%s: %d orphan hops, want 0", via, len(d.Orphans))
	}
	total, by := d.Consumed()
	if total != waiters || by["waiter"] != waiters {
		t.Errorf("%s: consumed %d (%v), want %d all by waiter", via, total, by, waiters)
	}
	// Flat: every hop is notifier-posted (poster 0, hop 0).
	if d.MaxDepth() != 1 {
		t.Errorf("%s: max depth %d, want 1", via, d.MaxDepth())
	}
	if len(d.Roots) != waiters {
		t.Errorf("%s: %d notifier-posted hops, want %d", via, len(d.Roots), waiters)
	}
	for _, h := range d.Hops {
		if h.Parent != 0 || h.Index != 0 {
			t.Errorf("%s: node %d has poster %d hop %d, want 0/0", via, h.Node, h.Parent, h.Index)
			break
		}
	}
	if d.CV != "bench.cv" {
		t.Errorf("%s: cv name %q, want bench.cv", via, d.CV)
	}
}

// TestBroadcastDAGRoundTrip reconstructs a 128-waiter broadcast's wake
// DAG three ways — straight from the live tracer, through the Chrome
// trace exporter, and through a flight-dump shaped document — and
// demands the identical, orphan-free shape from each.
func TestBroadcastDAGRoundTrip(t *testing.T) {
	const waiters = 128
	tr := broadcast(t, waiters)
	evs := tr.Events()

	// 1. Live path (what parsecbench/cvstress use in-run).
	live := waketrace.Build(waketrace.FromObs(evs))
	checkDAGs(t, live, waiters, "FromObs")

	// 2. Chrome export → parse (what cvtrace sees after -trace).
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := waketrace.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	chrome := waketrace.Build(parsed)
	checkDAGs(t, chrome, waiters, "chrome")

	// 3. Flight-dump shape (what cvtrace sees pointed at cvflight-*.json).
	// Chrome loses the cv name only if unnamed; the flight path carries
	// raw A/B, so the name resolves through the id — not available
	// offline — hence the dump parser keeps CV empty and the check below
	// relaxes it.
	type flightEv struct {
		TS   int64  `json:"ts_ns"`
		Type string `json:"type"`
		Lane uint64 `json:"lane"`
		A    int64  `json:"a,omitempty"`
		B    int64  `json:"b,omitempty"`
		Flow uint64 `json:"flow,omitempty"`
	}
	var fevs []flightEv
	for _, ev := range evs {
		fevs = append(fevs, flightEv{TS: ev.TS, Type: ev.Type.String(), Lane: ev.Lane, A: ev.A, B: ev.B, Flow: ev.Flow})
	}
	dump, err := json.Marshal(map[string]any{"reason": "test", "trace_events": fevs})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err = waketrace.Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	flight := waketrace.Build(parsed)
	if len(flight) == 1 {
		flight[0].CV = "bench.cv" // names don't travel through raw dumps; see above
	}
	checkDAGs(t, flight, waiters, "flight")

	// The analysis over the reconstructed DAG is internally consistent.
	rep := waketrace.Analyze(live, waketrace.Options{TopHops: 5})
	if rep.Flows != 1 || rep.Consumed != waiters || rep.Orphans != 0 {
		t.Errorf("report: %d flows, %d consumed, %d orphans", rep.Flows, rep.Consumed, rep.Orphans)
	}
	if got := rep.PerFlow[0]; got.SpanNS <= 0 || len(got.CriticalPath) == 0 {
		t.Errorf("critical path missing: span %d, %d steps", got.SpanNS, len(got.CriticalPath))
	}
	if len(rep.Slowest) != 5 {
		t.Errorf("slowest-hop table has %d entries, want 5", len(rep.Slowest))
	}
	if len(rep.DepthDist) != 1 || rep.DepthDist[1] != waiters {
		t.Errorf("depth distribution %v, want all %d wakes at depth 1", rep.DepthDist, waiters)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Error("text report is empty")
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Error("JSON report is not valid JSON")
	}
}

// TestChainShapeFromEvents: dumps may carry chained hops (waiter-posted,
// parent = the posting node, index = parent's + 1), and cvtrace must
// still reconstruct and check them. A hand-built flow of two chains —
// 10→11→12 and 20→21 — plus one hop naming a parent that posted nothing.
func TestChainShapeFromEvents(t *testing.T) {
	hop := func(ts int64, node uint64, parent, idx int64) waketrace.Event {
		return waketrace.Event{TS: ts, Kind: waketrace.KindHop, Lane: node, Flow: 5, A: parent, B: idx}
	}
	consume := func(ts int64, node uint64, idx int64) waketrace.Event {
		return waketrace.Event{TS: ts, Kind: waketrace.KindConsume, Lane: node, Flow: 5, A: idx}
	}
	evs := []waketrace.Event{
		{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 5, A: 5},
		hop(1, 10, 0, 0), hop(2, 20, 0, 0),
		consume(3, 10, 0), hop(4, 11, 10, 1),
		consume(5, 20, 0), hop(6, 21, 20, 1),
		consume(7, 11, 1), hop(8, 12, 11, 2),
		consume(9, 21, 1),
		consume(20, 12, 2), // the latest consume: the end of the critical path
	}
	dags := waketrace.Build(evs)
	if len(dags) != 1 {
		t.Fatalf("reconstructed %d flows, want 1", len(dags))
	}
	d := dags[0]
	if problems := waketrace.Check(dags); len(problems) != 0 {
		t.Fatalf("well-formed chains flagged: %v", problems)
	}
	if len(d.Roots) != 2 || d.MaxDepth() != 3 {
		t.Fatalf("shape: %d heads, depth %d, want 2 heads, depth 3", len(d.Roots), d.MaxDepth())
	}
	var path []uint64
	for _, h := range d.CriticalPath() {
		path = append(path, h.Node)
	}
	if want := []uint64{10, 11, 12}; !reflect.DeepEqual(path, want) {
		t.Fatalf("critical path %v, want %v (parent links back from the latest consume)", path, want)
	}
	rep := waketrace.Analyze(dags, waketrace.Options{})
	if want := map[int64]int{1: 2, 2: 2, 3: 1}; !reflect.DeepEqual(rep.DepthDist, want) {
		t.Errorf("depth distribution %v, want %v", rep.DepthDist, want)
	}
	if got := rep.PerFlow[0].SpanNS; got != 20 {
		t.Errorf("critical-path span %d, want 20", got)
	}
	if rep.HopP99NS <= 0 {
		t.Errorf("chained-hop p99 %d, want > 0", rep.HopP99NS)
	}

	// Orphan detection: a hop whose named parent posted nothing here.
	dags = waketrace.Build(append(evs, hop(10, 30, 99, 3)))
	if d := dags[0]; len(d.Orphans) != 1 || d.Orphans[0].Node != 30 {
		t.Fatalf("orphans %v, want node 30", d.Orphans)
	}
	if problems := waketrace.Check(dags); len(problems) != 1 {
		t.Fatalf("check found %v, want exactly the orphan", problems)
	}

	// The hop+1 rule: a child must sit one position behind its parent.
	dags = waketrace.Build(append(evs, hop(10, 13, 12, 7)))
	if problems := waketrace.Check(dags); len(problems) != 1 {
		t.Fatalf("check found %v, want exactly the mis-indexed child", problems)
	}
}

// TestCheckCatchesCorruption: hand-built violations must each trip the
// structural validator.
func TestCheckCatchesCorruption(t *testing.T) {
	mk := func(evs ...waketrace.Event) []*waketrace.DAG {
		return waketrace.Build(evs)
	}
	root := waketrace.Event{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 7, A: 2}

	cases := []struct {
		name string
		dags []*waketrace.DAG
	}{
		{"orphan hop", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 99, B: 1},
		)},
		{"missing root", mk(
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
		)},
		{"bad child index", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
			waketrace.Event{TS: 2, Kind: waketrace.KindHop, Lane: 11, Flow: 7, A: 10, B: 5},
		)},
		{"nonzero root hop index", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 3},
		)},
		{"consumes exceed batch", mk(
			waketrace.Event{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 7, A: 1},
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
			waketrace.Event{TS: 2, Kind: waketrace.KindHop, Lane: 11, Flow: 7, A: 10, B: 1},
			waketrace.Event{TS: 3, Kind: waketrace.KindConsume, Lane: 10, Flow: 7, A: 0},
			waketrace.Event{TS: 4, Kind: waketrace.KindConsume, Lane: 11, Flow: 7, A: 1},
		)},
		{"txn without consumed hop", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
			waketrace.Event{TS: 2, Kind: waketrace.KindConsume, Lane: 10, Flow: 7, A: 0},
			waketrace.Event{TS: 3, Kind: waketrace.KindTxn, Lane: 500, Flow: 7, A: 9},
		)},
	}
	for _, tc := range cases {
		if problems := waketrace.Check(tc.dags); len(problems) == 0 {
			t.Errorf("%s: validator saw nothing wrong", tc.name)
		}
	}

	// And a clean single-notify flow passes.
	clean := mk(
		waketrace.Event{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 9, A: 1},
		waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 9, A: 0, B: 0},
		waketrace.Event{TS: 2, Kind: waketrace.KindConsume, Lane: 10, Flow: 9, A: 0},
		waketrace.Event{TS: 3, Kind: waketrace.KindTxn, Lane: 500, Flow: 9, A: 0},
	)
	if problems := waketrace.Check(clean); len(problems) != 0 {
		t.Errorf("clean flow flagged: %v", problems)
	}
}

// Dumps written while the semaphore still stamped its own hand-off hops
// carry sem.handoff records (flight shape) and semhop args (Chrome
// shape). They must still load, and a flow made only of such records
// must not build a condvar DAG.
func TestSemOnlyFlowsSkipped(t *testing.T) {
	for _, dump := range []string{
		`{"trace_events":[{"ts_ns":0,"type":"sem.handoff","lane":3,"flow":11},` +
			`{"ts_ns":1,"type":"sem.handoff","lane":4,"flow":11,"a":1}]}`,
		`{"traceEvents":[{"name":"sem.handoff","ph":"t","ts":0,"tid":3,"id":11,"args":{"kind":"semhop","hop":0}},` +
			`{"name":"sem.handoff","ph":"t","ts":1,"tid":4,"id":11,"args":{"kind":"semhop","hop":1}}]}`,
	} {
		evs, err := waketrace.Parse([]byte(dump))
		if err != nil {
			t.Fatalf("old dump rejected: %v", err)
		}
		if dags := waketrace.Build(evs); len(dags) != 0 {
			t.Fatalf("sem-only flow produced %d condvar DAGs", len(dags))
		}
	}
}
