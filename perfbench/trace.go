package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Call kinds: the root span of one operation, then the facility calls
// the benchmark wraps. A span's id is op*nKinds + kind, so ids are unique
// across goroutines without coordination and a call's parent is always
// the root span of its operation.
const (
	kindOp = iota
	kindPut
	kindGet
	kindSubmit
	kindDrain
	kindArrive
	nKinds
)

// facilityCalls names the call kinds kindPut..kindArrive, in order; the
// per-layer metric of kind k is "facility.<facilityCalls[k-1]>_us".
var facilityCalls = []string{"put", "get", "submit", "drain", "arrive"}

// span is one traced interval, in nanoseconds since the process epoch.
// It holds no pointers, so span buffers can live off the Go heap.
type span struct {
	start, end     int64
	id, parent, op uint64
	kind           uint8
}

// spanJSON is how a span is written out.
type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
}

// spanTotal accumulates every span of one kind, kept or not.
type spanTotal struct{ Count, Nanos int64 }

// tracer is one goroutine's span buffer. It is not safe for concurrent
// use: each driver goroutine owns one, and the coordinator reads it only
// after the goroutine has stopped. A nil *tracer records nothing, which
// is how the untraced runs pay for no tracing at all.
type tracer struct {
	root    string // name of the operation's root span
	spans   []span // off-heap, fixed capacity: spans kept in memory
	dropped int64  // spans past the capacity; they only feed totals
	totals  [nKinds]spanTotal
	w       *window // spans recorded while the window is closed are dropped
}

// record adds one span of the given kind for operation op.
func (t *tracer) record(kind int, op uint64, start, end int64) {
	if t == nil || t.w.current() < 0 {
		return
	}
	t.totals[kind].Count++
	t.totals[kind].Nanos += end - start
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	var parent uint64
	if kind != kindOp {
		parent = op * nKinds
	}
	t.spans = append(t.spans, span{start, end, op*nKinds + uint64(kind), parent, op, uint8(kind)})
}

// traceSet is every tracer of one traced run.
type traceSet []*tracer

// totals sums the per-kind totals of every tracer, keyed by call name.
func (ts traceSet) totals() map[string]spanTotal {
	out := make(map[string]spanTotal, len(facilityCalls))
	for _, t := range ts {
		for k := kindPut; k < nKinds; k++ {
			st := out[facilityCalls[k-1]]
			st.Count += t.totals[k].Count
			st.Nanos += t.totals[k].Nanos
			out[facilityCalls[k-1]] = st
		}
	}
	return out
}

// write stores every kept span as one JSON document at path.
func (ts traceSet) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var dropped int64
	for _, t := range ts {
		dropped += t.dropped
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped\":%d,\"spans\":[", workload, seed, dropped)
	enc := json.NewEncoder(w)
	first := true
	for _, t := range ts {
		for _, s := range t.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			name := t.root
			if s.kind != kindOp {
				name = facilityCalls[s.kind-1]
			}
			if err := enc.Encode(spanJSON{name, s.start, s.end, s.id, s.parent, s.op}); err != nil {
				f.Close()
				return err
			}
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
