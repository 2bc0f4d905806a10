// Package sem implements counting semaphores in user space.
//
// The paper ("Transaction-Friendly Condition Variables", SPAA 2014)
// represents each condition variable as a transactional queue of
// per-thread counting semaphores (its Algorithm 3 uses POSIX sem_t).
// This package is that substrate, with the two properties the
// condition-variable algorithm depends on:
//
//  1. Memory: a Post that happens before the matching Wait is never
//     lost. The condvar's WAIT enqueues itself and completes its sync
//     block *before* sleeping; a notifier's SemPost in that window is
//     memorized, so the "missed notify" race cannot happen.
//  2. Direct hand-off: a Post that finds a parked waiter hands it the
//     permit directly (a barging TryWait never sees it), which with the
//     condvar's queue gives the deterministic wake-ups of Section 3.4.
//
// Waiters park on a channel rather than spin, so the "Yielding"
// requirement of Section 3.4 holds under heavy oversubscription.
//
// # One queue, global FIFO
//
// A Sem is a banked permit count plus one intrusive FIFO list of parked
// waiters under one sync.Mutex (the low-level lock the paper assumes
// underneath sem_t). Post hands its permit to the head waiter or, when
// nobody is parked, banks it; Wait takes a banked permit or enqueues at
// the tail and parks. Both decisions are made under the lock, so a
// permit is never banked while a waiter is parked, and blocked waiters
// wake in exactly the order they parked. The count is also an atomic,
// so TryWait and the Wait fast path take a banked permit without the
// lock. Timeout and cancellation losers unlink under the lock; a loser
// a Post already dequeued keeps the permit, so none is ever lost.
//
// Per-P striped waiter lanes (Dice & Kogan, "Semaphores Augmented with
// a Waiting Array") pay only when many waiters share one semaphore; a
// condvar node semaphore parks at most one, and an A/B on the repository
// benchmark showed no gain, so they were removed (DESIGN.md §16.1).
package sem

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Stats aggregates semaphore activity. All fields are atomic counters and
// may be read while the semaphore is in use.
type Stats struct {
	Posts     stats.Counter // total successful Post operations
	Waits     stats.Counter // total completed Wait/TryWait-success operations
	FastWaits stats.Counter // Waits satisfied without blocking
	Blocks    stats.Counter // Waits that had to deschedule the caller
	SpinWaits stats.Counter // Waits satisfied during the bounded spin phase (no park)
	Timeouts  stats.Counter // WaitTimeout expirations
	Cancels   stats.Counter // WaitCtx cancellations

	ParkNanos obs.Histogram // park durations of the Waits counted in Blocks
}

// waiter is one parked goroutine. The channel has capacity 1 so a poster
// never blocks. parkedAt is stamped and read under the semaphore lock
// (the park-age source behind /debug/cv/waiters).
type waiter struct {
	ch       chan struct{}
	next     *waiter
	parkedAt time.Time
}

// waiterPool recycles waiters (channel included) so a warm park
// allocates nothing. A waiter is put back only once its channel is
// provably empty: its signal was consumed, or it unlinked itself first.
var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

func putWaiter(w *waiter) {
	w.next = nil
	waiterPool.Put(w)
}

// Spin-then-park bounds (Dice & Kogan: a short spin skips the park when
// hand-offs are fast, and must decay to pure parking when they are not).
const (
	spinLimit         = 128                   // max polls, a Gosched between each
	spinParkThreshold = 50 * time.Microsecond // parks shorter than this grow the budget
)

// Sem is a counting semaphore. The zero value is a semaphore with zero
// permits; use New to start with an initial count.
//
// Sem must not be copied after first use.
type Sem struct {
	mu sync.Mutex

	// count holds banked permits, positive only while the queue is
	// empty. Increments happen under mu; decrements are a CAS.
	count atomic.Int64

	// head/tail delimit the FIFO of parked waiters (tail is stale while
	// head is nil); n is its length, read racily by Waiters.
	head, tail *waiter
	n          atomic.Int32

	// procs is GOMAXPROCS sampled once (by New, or by the zero value's
	// first enqueue); it gates the spin phase.
	procs atomic.Int32

	// spin is the adaptive spin budget (polls before parking); see
	// tuneSpin. Zero, the initial value, parks at once.
	spin atomic.Int32

	st     *Stats
	tr     *obs.Tracer // events attributed to trLane (the condvar node id)
	trLane uint64
	flt    *fault.Injector
}

// New returns a semaphore holding n initial permits. n must be >= 0.
func New(n int64) *Sem {
	if n < 0 {
		panic(fmt.Sprintf("sem: negative initial count %d", n))
	}
	s := &Sem{}
	s.count.Store(n)
	s.procs.Store(int32(runtime.GOMAXPROCS(0)))
	return s
}

// NewBinary returns the per-thread binary semaphore of the paper's
// Algorithm 3: it starts at zero, so the first Wait blocks until a Post.
func NewBinary() *Sem { return New(0) }

// SetStats attaches a stats sink (nil detaches). Like SetTrace and
// SetFault it is unsynchronized: call it before sharing the semaphore.
func (s *Sem) SetStats(st *Stats) { s.st = st }

// SetTrace attaches an event tracer and the trace lane (e.g. the owning
// condvar node id) park/unpark events are attributed to.
func (s *Sem) SetTrace(tr *obs.Tracer, lane uint64) { s.tr, s.trLane = tr, lane }

// SetFault attaches a fault injector; nil detaches.
func (s *Sem) SetFault(in *fault.Injector) { s.flt = in }

// faultAt draws and applies the injector's decision for hook point p.
// Only delays are meaningful here — there is no transaction attempt to
// abort — so abort-shaped decisions degrade to traced no-ops.
func (s *Sem) faultAt(p fault.Point) {
	d := s.flt.At(p)
	if d.Action == fault.ActNone {
		return
	}
	s.tr.Emit(s.trLane, obs.EvFaultInject, int64(p), int64(d.Action))
	d.Pause()
}

// parkStart stamps the start of a park, emitting the park event and the
// introspection label when enabled. The stamp is always taken: the spin
// tuner needs the hand-off latency even with no stats sink attached.
func (s *Sem) parkStart() time.Time {
	if obs.ParkLabelsEnabled() {
		labelParked(s.trLane)
	}
	t0 := time.Now()
	if s.tr.Enabled() {
		s.tr.Emit(s.trLane, obs.EvSemPark, 0, 0)
	}
	return t0
}

// parkEnd records the park started at t0 (histogram + unpark span
// event) and clears the park label. A zero t0 records nothing.
func (s *Sem) parkEnd(t0 time.Time) {
	if obs.ParkLabelsEnabled() {
		clearParkLabel()
	}
	if t0.IsZero() {
		return
	}
	// Clamped: a stepping clock must not record a negative duration.
	d := max(time.Since(t0).Nanoseconds(), 0)
	if s.st != nil {
		s.st.ParkNanos.Observe(d)
	}
	if tr := s.tr; tr.Enabled() {
		tr.EmitEvent(obs.Event{TS: tr.Now() - d, Dur: d, Type: obs.EvSemUnpark, Lane: s.trLane})
	}
}

// tryAcquire consumes one banked permit, reporting success. It loops on
// the CAS, so only the count reaching zero can make it fail.
func (s *Sem) tryAcquire() bool {
	for c := s.count.Load(); c > 0; c = s.count.Load() {
		if s.count.CompareAndSwap(c, c-1) {
			return true
		}
	}
	return false
}

// enqueue appends a pooled waiter to the queue, or returns nil if a
// permit was banked by the time the lock was taken (it is consumed).
func (s *Sem) enqueue() *waiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tryAcquire() {
		return nil
	}
	if s.procs.Load() == 0 {
		s.procs.Store(int32(runtime.GOMAXPROCS(0))) // zero-value Sem
	}
	w := waiterPool.Get().(*waiter)
	w.parkedAt = time.Now()
	if s.head == nil {
		s.head = w
	} else {
		s.tail.next = w
	}
	s.tail = w
	s.n.Add(1)
	return w
}

// unlink removes w from the queue, reporting whether it was still there
// (false: a Post dequeued it and its permit is, or will be, in w.ch).
func (s *Sem) unlink(w *waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prev *waiter
	for p := &s.head; *p != nil; prev, p = *p, &(*p).next {
		if *p == w {
			*p = w.next
			if s.tail == w {
				s.tail = prev
			}
			w.next = nil
			s.n.Add(-1)
			return true
		}
	}
	return false
}

// Post makes one permit available: the longest-blocked Wait receives it
// directly, or it is banked for a future Wait. Post never blocks, so it
// is safe in the commit handlers the condvar defers wake-ups to.
func (s *Sem) Post() { s.PostN(1) }

// PostN posts n permits: the n longest-waiting goroutines are woken in
// FIFO order and any permits left over are banked, all under one lock
// acquisition. The fault.SemPost hook is drawn once per call.
func (s *Sem) PostN(n int) {
	if n <= 0 {
		return
	}
	// Fault hook: delay the (possibly commit-deferred) SEMPOST, widening
	// the notify→wake window.
	s.faultAt(fault.SemPost)
	s.mu.Lock()
	head, woken := s.head, 0
	for ; woken < n && s.head != nil; woken++ {
		s.head = s.head.next
	}
	if woken > 0 {
		s.n.Add(int32(-woken))
	}
	if woken < n {
		s.count.Add(int64(n - woken))
	}
	s.mu.Unlock()
	// The sends cannot block (capacity 1, one permit per waiter). Read
	// next first: a woken goroutine recycles its waiter.
	for w := head; woken > 0; woken-- {
		nx := w.next
		w.next = nil
		w.ch <- struct{}{}
		w = nx
	}
	if s.st != nil {
		s.st.Posts.Add(int64(n))
	}
}

// spinWait polls w.ch up to budget times, yielding between polls so the
// poster still gets scheduled, and reports whether a signal arrived.
func spinWait(w *waiter, budget int32) bool {
	for i := int32(0); i < budget; i++ {
		select {
		case <-w.ch:
			return true
		default:
		}
		runtime.Gosched()
	}
	return false
}

// tuneSpin adapts the spin budget to the latency of a park that just
// ended: fast hand-offs double it (plus 8, capped at spinLimit), slow
// ones halve it. With a single P it pins to zero — a fast hand-off there
// is scheduling luck, not evidence a spin could have won.
func (s *Sem) tuneSpin(parked time.Duration) {
	if s.procs.Load() <= 1 {
		s.spin.Store(0)
		return
	}
	b := s.spin.Load()
	if parked >= 0 && parked < spinParkThreshold {
		b = min(b*2+8, spinLimit)
	} else {
		b /= 2
	}
	s.spin.Store(b)
}

func (s *Sem) countWait(fast bool) {
	if s.st != nil {
		s.st.Waits.Inc()
		if fast {
			s.st.FastWaits.Inc()
		}
	}
}

// block is the slow path of Wait, WaitTimeout and WaitCtx: enqueue and
// park until a Post hands over a permit. A positive d or a non-nil done
// bounds the park; when it fires first the waiter unlinks itself and
// block reports false, unless a Post already dequeued it: then the
// notification wins and the permit is taken. Only an unbounded wait
// spins before parking and feeds the spin tuner.
func (s *Sem) block(d time.Duration, done <-chan struct{}) bool {
	w := s.enqueue()
	if w == nil {
		s.countWait(true)
		return true
	}
	// Fault hook: stall between publishing ourselves as a waiter and
	// descheduling — a Post landing in this window must be memorized in
	// the hand-off channel, never lost.
	s.faultAt(fault.SemPark)
	unbounded := d <= 0 && done == nil
	if b := s.spin.Load(); unbounded && b > 0 && s.procs.Load() > 1 && spinWait(w, b) {
		putWaiter(w)
		if s.st != nil {
			s.st.SpinWaits.Inc()
		}
		s.countWait(false)
		return true
	}
	if s.st != nil {
		s.st.Blocks.Inc()
	}
	t0 := s.parkStart()
	var expire <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expire = t.C
	}
	aborted := false
	select {
	case <-w.ch:
	case <-expire:
		aborted = true
	case <-done:
		aborted = true
	}
	if aborted {
		if s.unlink(w) {
			putWaiter(w)
			s.parkEnd(t0)
			return false
		}
		<-w.ch // dequeued by a Post: its permit is on the way
	}
	putWaiter(w)
	s.parkEnd(t0)
	if unbounded {
		s.tuneSpin(time.Since(t0))
	}
	s.countWait(false)
	return true
}

// Wait acquires one permit, descheduling the caller until one is
// available. Permits are delivered in FIFO order among blocked waiters.
//
// Before descheduling, Wait polls its hand-off channel for an adaptively
// tuned number of iterations (spin-then-park), skipping the park when
// recent hand-offs were fast. The budget starts at zero and stays zero
// on a single-P runtime, so an idle semaphore never busy-waits.
func (s *Sem) Wait() {
	if !s.TryWait() {
		s.block(0, nil)
	}
}

// TryWait acquires a banked permit if one is available (permits handed
// to a parked waiter are never visible here), reporting success.
func (s *Sem) TryWait() bool {
	if s.tryAcquire() {
		s.countWait(true)
		return true
	}
	return false
}

// WaitTimeout acquires a permit, giving up after d. It reports whether a
// permit was acquired. A timed-out waiter is unlinked from the queue; if
// a Post races with the timeout and hands the permit over anyway, the
// permit is kept and WaitTimeout returns true (no permit is ever lost).
//
// A non-positive d acts exactly as TryWait — the caller is never parked
// — except that a failed acquire still counts as a timeout in Stats.
func (s *Sem) WaitTimeout(d time.Duration) bool {
	if s.TryWait() || (d > 0 && s.block(d, nil)) {
		return true
	}
	if s.st != nil {
		s.st.Timeouts.Inc()
	}
	return false
}

// WaitCtx acquires a permit, giving up when ctx is cancelled. It reports
// whether a permit was acquired. As in WaitTimeout the notification
// wins: a waiter a Post dequeued before the cancellation took effect
// consumes the permit and returns true. An already-cancelled ctx still
// acquires an immediately available permit but never parks.
func (s *Sem) WaitCtx(ctx context.Context) bool {
	if s.TryWait() || (ctx.Err() == nil && s.block(0, ctx.Done())) {
		return true
	}
	if s.st != nil {
		s.st.Cancels.Inc()
	}
	return false
}

// Value returns the current banked permit count (never negative).
func (s *Sem) Value() int64 { return s.count.Load() }

// Waiters returns the number of goroutines blocked in Wait (racy).
func (s *Sem) Waiters() int { return int(s.n.Load()) }
