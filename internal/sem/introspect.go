package sem

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"
)

// Live introspection (DESIGN.md §10), off the Wait fast path: park ages
// for /debug/cv/waiters and the park-time pprof labels.

// WaiterAges returns how long each currently parked goroutine has been
// waiting, longest-parked first (queue order: the queue is FIFO). Ages
// are clamped at zero so a stepping clock never reports a negative one.
func (s *Sem) WaiterAges() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var out []time.Duration
	for w := s.head; w != nil; w = w.next {
		out = append(out, max(now.Sub(w.parkedAt), 0))
	}
	return out
}

// OldestParkAge returns the park age of the longest-waiting goroutine
// (the queue head, clamped like WaiterAges) and whether anyone is parked.
func (s *Sem) OldestParkAge() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == nil {
		return 0, false
	}
	return max(time.Since(s.head.parkedAt), 0), true
}

// ParkLabelKey is the goroutine pprof label key parked waiters carry
// (value: the lane / condvar node id). Visible in goroutine profiles of
// a process with introspection on, and echoed by /debug/cv/waiters.
const ParkLabelKey = "cv_lane"

// labelParked tags the calling goroutine with its park lane so goroutine
// profiles taken during the park attribute it to its condvar node.
func labelParked(lane uint64) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels(ParkLabelKey, strconv.FormatUint(lane, 10))))
}

// clearParkLabel drops the park label once the goroutine resumes.
func clearParkLabel() {
	pprof.SetGoroutineLabels(context.Background())
}
