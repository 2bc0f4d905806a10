package core

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/sem"
	"repro/internal/stm"
)

// This file is the condvar's face toward the live-introspection stack
// (DESIGN.md §10): the CVStats instrument table backing
// Snapshot/Histograms/RegisterMetrics, and the per-condvar wait-chain
// source behind /debug/cv/waiters. Nothing here runs unless a scraper
// asks; the wait path is untouched.

// epoch anchors the Node timestamps: monotonic nanoseconds since
// process-local time zero fit an atomic.Int64, which plain time.Time
// stamps (3 words) do not.
var epoch = time.Now()

// monoNS returns monotonic nanoseconds since the package epoch. Always
// positive in practice (the first caller runs after init), so zero can
// mean "unset".
func monoNS() int64 { return time.Since(epoch).Nanoseconds() }

// cvScalar is one CVStats counter/gauge row.
type cvScalar struct {
	name string
	help string
	kind registry.Kind
	read func() int64
}

// scalars lists every scalar instrument CVStats exports, including the
// two semaphore aggregates the JSON snapshot has always carried.
func (s *CVStats) scalars() []cvScalar {
	return []cvScalar{
		{"waits", "completed WAIT operations", registry.KindCounter, s.Waits.Load},
		{"notify_ones", "NotifyOne calls that woke someone", registry.KindCounter, s.NotifyOnes.Load},
		{"notify_alls", "NotifyAll calls that woke at least one thread", registry.KindCounter, s.NotifyAlls.Load},
		{"notify_empty", "notifies that found an empty queue", registry.KindCounter, s.NotifyEmpty.Load},
		{"woken", "total threads woken", registry.KindCounter, s.Woken.Load},
		{"timeouts", "timed waits that expired un-notified", registry.KindCounter, s.Timeouts.Load},
		{"cancels", "context waits that ended cancelled", registry.KindCounter, s.Cancels.Load},
		{"max_queue", "deepest queue observed by a notifier", registry.KindGauge, s.MaxQueue.Load},
		{"sem_posts", "node semaphore posts", registry.KindCounter, s.Sem.Posts.Load},
		{"sem_blocks", "node semaphore waits that descheduled", registry.KindCounter, s.Sem.Blocks.Load},
		{"sem_spin_waits", "node semaphore waits satisfied while spinning", registry.KindCounter, s.Sem.SpinWaits.Load},
		{"wake_consumed_waiter", "wakes consumed by live waiters", registry.KindCounter, s.WakeConsumedWaiter.Load},
		{"wake_consumed_timeout", "wakes consumed by timed-out losers", registry.KindCounter, s.WakeConsumedTimeout.Load},
		{"wake_consumed_cancel", "wakes consumed by cancelled losers", registry.KindCounter, s.WakeConsumedCancel.Load},
	}
}

// cvHist is one CVStats histogram row.
type cvHist struct {
	name string
	help string
	h    *obs.Histogram
}

func (s *CVStats) histograms() []cvHist {
	return []cvHist{
		{"enqueue_to_notify_ns", "enqueue to the notifier's committed post", &s.EnqueueToNotify},
		{"notify_to_wake_ns", "committed post to the waiter resuming", &s.NotifyToWake},
		{"queue_depth", "committed queue depth seen at each dequeue", &s.QueueDepth},
		{"wake_batch", "waiters dequeued per committed notify batch", &s.WakeBatch},
		{"broadcast_ns", "notify-batch commit to last waiter resumed", &s.BroadcastNanos},
		{"sem_park_ns", "park duration of descheduled waits", &s.Sem.ParkNanos},
	}
}

// RegisterMetrics registers every CVStats instrument into r under the
// given labels: counters as cv_<name>_total, the max-queue gauge as
// cv_max_queue, histograms as cv_<name>.
func (s *CVStats) RegisterMetrics(r *registry.Registry, labels registry.Labels) {
	if r == nil {
		return
	}
	for _, sc := range s.scalars() {
		// The wake_consumed_* rows export as one labeled family below, not
		// as three counter names (the by= label is the query axis).
		if sc.name == "wake_consumed_waiter" || sc.name == "wake_consumed_timeout" || sc.name == "wake_consumed_cancel" {
			continue
		}
		switch sc.kind {
		case registry.KindCounter:
			r.RegisterCounter("cv_"+sc.name+"_total", sc.help, labels, sc.read)
		default:
			r.RegisterGauge("cv_"+sc.name, sc.help, labels, sc.read)
		}
	}
	r.RegisterCounterSet("cv_wake_consumed_total",
		"wakes consumed, by consumer kind (waiter, or a timeout/cancel loser keeping a raced permit)",
		labels, func() []registry.Sample {
			return []registry.Sample{
				{Labels: registry.Labels{"by": "waiter"}, Value: s.WakeConsumedWaiter.Load()},
				{Labels: registry.Labels{"by": "timeout"}, Value: s.WakeConsumedTimeout.Load()},
				{Labels: registry.Labels{"by": "cancel"}, Value: s.WakeConsumedCancel.Load()},
			}
		})
	for _, th := range s.histograms() {
		name := th.name
		// The JSON key "queue_depth" would collide with the per-condvar
		// cv_queue_depth gauge (one exposition family cannot carry two
		// types); the registry name says what the histogram measures.
		if name == "queue_depth" {
			name = "dequeue_depth"
		}
		r.RegisterHistogram("cv_"+name, th.help, labels, th.h.Snapshot)
	}
}

// maxWaitChain bounds one WaitChain walk; a queue deeper than this is
// truncated in the dump (the depth gauge still tells the whole story).
const maxWaitChain = 4096

// WaitChain returns the current wait queue as registry Waiters: node
// ids, enqueue ages, and park ages. The queue is walked in a read-only
// transaction (so a torn list is never observed); the node pointers are
// then inspected outside it through atomics and the semaphore lock, so
// a node released concurrently yields stale-but-safe values. ParkAgeNS
// is -1 for a waiter that is enqueued but not yet descheduled — the
// paper's lost-wakeup window, made visible.
func (cv *CondVar) WaitChain() []registry.Waiter {
	var nodes []*Node
	_ = cv.e.AtomicRead(func(tx *stm.Tx) {
		nodes = nodes[:0]
		for n := stm.Read(tx, cv.head); n != nil; n = stm.Read(tx, n.next) {
			nodes = append(nodes, n)
			if len(nodes) == maxWaitChain {
				return
			}
		}
	})
	now := monoNS()
	labelsOn := obs.ParkLabelsEnabled()
	out := make([]registry.Waiter, 0, len(nodes))
	for _, n := range nodes {
		w := registry.Waiter{Node: n.id, ParkAgeNS: -1}
		if enq := n.enqueuedNS.Load(); enq != 0 {
			if age := now - enq; age > 0 {
				w.EnqueueAgeNS = age
			}
		}
		if age, parked := n.sem.OldestParkAge(); parked {
			// The park stamp is read after `now`, so measurement skew can
			// push the raw park age past the enqueue age; physically a
			// waiter always enqueues before it parks, so clamp.
			p := age.Nanoseconds()
			if p > w.EnqueueAgeNS {
				p = w.EnqueueAgeNS
			}
			w.ParkAgeNS = p
		}
		if labelsOn {
			w.PprofLabel = sem.ParkLabelKey + "=" + strconv.FormatUint(n.id, 10)
		}
		out = append(out, w)
	}
	return out
}

// RegisterIntrospect registers the condvar's live sources into r under
// name: the committed queue-depth gauge and the wait-chain source.
func (cv *CondVar) RegisterIntrospect(r *registry.Registry, name string) {
	if r == nil {
		return
	}
	r.RegisterGauge("cv_queue_depth", "committed condvar wait-queue depth",
		registry.Labels{"cv": name}, cv.depth.Load)
	r.RegisterWaiters(name, cv.WaitChain)
}

// RegisterWakeMetrics enables this condvar's per-instance wake-consumer
// counters and registers them into r as cv_wake_consumed_total labeled
// with the condvar's name — the named-CV view of the aggregate CVStats
// consumer counters, so a facility's "queue.notempty" wakes are
// distinguishable from its "queue.notfull" wakes. A setup-time call
// like SetStats: it flips the consumedOn flag the wake path reads
// unsynchronized, so call it before the condvar is shared. No-op if r
// is nil or the condvar is unnamed.
func (cv *CondVar) RegisterWakeMetrics(r *registry.Registry) {
	if r == nil || cv.name == "" {
		return
	}
	cv.consumedOn = true
	r.RegisterCounterSet("cv_wake_consumed_total",
		"wakes consumed, by consumer kind (waiter, or a timeout/cancel loser keeping a raced permit)",
		registry.Labels{"cv": cv.name}, func() []registry.Sample {
			return []registry.Sample{
				{Labels: registry.Labels{"by": "waiter"}, Value: cv.consumed[obs.WakeByWaiter].Load()},
				{Labels: registry.Labels{"by": "timeout"}, Value: cv.consumed[obs.WakeByTimeout].Load()},
				{Labels: registry.Labels{"by": "cancel"}, Value: cv.consumed[obs.WakeByCancel].Load()},
			}
		})
}
