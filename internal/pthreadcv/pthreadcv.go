// Package pthreadcv is the baseline condition variable the paper compares
// against (its "Parsec+pthreadCondVar" configuration): a Mesa-style,
// OS-flavoured condvar with the two relaxations POSIX and C++11 permit and
// the paper's Section 3.4 discusses at length:
//
//   - Spurious wake-ups: a Wait may return without any matching Signal or
//     Broadcast. Real kernels exhibit this when an interrupt lands during
//     the user/kernel transition of a wait; this package reproduces it
//     with a configurable injector so tests and benchmarks can measure the
//     cost of the defensive re-check loop that spurious wake-ups force on
//     every caller.
//   - Oblivious wake-ups: Broadcast wakes every waiter whether or not its
//     predicate holds, and Signal may wake a "wrong" thread when several
//     predicates share one condvar.
//
// Unlike the transaction-friendly condvar in internal/core, this one keeps
// its waiter set behind an internal lock (playing the role of the kernel's
// wait-queue lock) and has no transactional integration: calling it from a
// transaction would require exactly the OS surgery (Dudnik & Swift) the
// paper's design avoids.
package pthreadcv

import (
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/syncx"
)

// Stats aggregates condvar activity.
type Stats struct {
	Waits         stats.Counter
	Signals       stats.Counter
	Broadcasts    stats.Counter
	EmptySignals  stats.Counter // Signal/Broadcast that found no waiter
	SpuriousWakes stats.Counter // waits that returned without a signal
}

// SpuriousInjector makes a Cond return spuriously from Wait with
// probability Rate per wait, after a uniform delay in (0, MaxDelay]. A nil
// injector disables injection (the common production configuration), but
// callers must still code for spurious wake-ups — that is the POSIX
// contract this package reproduces.
type SpuriousInjector struct {
	Rate     float64       // probability per Wait, in [0, 1]
	MaxDelay time.Duration // upper bound on the injected delay; default 1ms

	mu  sync.Mutex
	rng uint64
}

// NewSpuriousInjector returns an injector with the given per-wait rate and
// a deterministic seed.
func NewSpuriousInjector(rate float64, seed uint64) *SpuriousInjector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &SpuriousInjector{Rate: rate, MaxDelay: time.Millisecond, rng: seed}
}

// roll decides whether this wait will be spuriously interrupted and, if
// so, after what delay.
func (si *SpuriousInjector) roll() (bool, time.Duration) {
	si.mu.Lock()
	defer si.mu.Unlock()
	si.rng ^= si.rng << 13
	si.rng ^= si.rng >> 7
	si.rng ^= si.rng << 17
	r := float64(si.rng%1_000_000) / 1_000_000
	if r >= si.Rate {
		return false, 0
	}
	max := si.MaxDelay
	if max <= 0 {
		max = time.Millisecond
	}
	d := time.Duration(si.rng % uint64(max))
	if d <= 0 {
		d = time.Microsecond
	}
	return true, d
}

// waiter is one parked goroutine; the channel has capacity 1 so wakers
// never block.
type waiter struct {
	ch   chan struct{}
	next *waiter
}

// Cond is the baseline condition variable. It must be used with a
// syncx.Mutex held across Wait, in the usual POSIX pattern:
//
//	m.Lock()
//	for !predicate() {
//	    c.Wait(m)
//	}
//	... use state ...
//	m.Unlock()
//
// The zero value is ready to use.
type Cond struct {
	mu         sync.Mutex
	head, tail *waiter
	inj        *SpuriousInjector
	st         *Stats
}

// New returns a condvar, optionally with a spurious-wake-up injector.
func New(inj *SpuriousInjector) *Cond { return &Cond{inj: inj} }

// SetStats attaches a stats sink; call before concurrent use.
func (c *Cond) SetStats(st *Stats) { c.st = st }

// Wait atomically releases m and suspends the caller until a Signal,
// Broadcast, or spurious wake-up, then re-acquires m before returning.
// As with pthread_cond_wait, the caller must re-check its predicate in a
// loop.
func (c *Cond) Wait(m *syncx.Mutex) {
	w := &waiter{ch: make(chan struct{}, 1)}
	c.mu.Lock()
	if c.tail == nil {
		c.head, c.tail = w, w
	} else {
		c.tail.next = w
		c.tail = w
	}
	c.mu.Unlock()

	// The waiter is registered; releasing the user lock now cannot lose
	// a wake-up (the "atomic release and sleep" obligation).
	m.Unlock()

	if c.inj != nil {
		if spur, d := c.inj.roll(); spur {
			c.waitWithSpurious(w, d)
			m.Lock()
			return
		}
	}
	<-w.ch
	if c.st != nil {
		c.st.Waits.Inc()
	}
	m.Lock()
}

// waitWithSpurious parks like Wait but gives up after d, simulating an
// interrupted sleep. A real signal that races with the interruption is
// never lost: if we were already dequeued, we consume the wake normally.
func (c *Cond) waitWithSpurious(w *waiter, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.ch:
		if c.st != nil {
			c.st.Waits.Inc()
		}
		return
	case <-t.C:
	}
	c.mu.Lock()
	if c.unlinkLocked(w) {
		c.mu.Unlock()
		if c.st != nil {
			c.st.SpuriousWakes.Inc()
			c.st.Waits.Inc()
		}
		return
	}
	c.mu.Unlock()
	// A signal already claimed us; the wake is (or will be) in the
	// channel.
	<-w.ch
	if c.st != nil {
		c.st.Waits.Inc()
	}
}

// Signal wakes one waiter if any are parked; otherwise it is lost (Mesa
// semantics — there is no memory of signals, unlike a semaphore).
func (c *Cond) Signal() {
	c.mu.Lock()
	w := c.head
	if w != nil {
		c.head = w.next
		if c.head == nil {
			c.tail = nil
		}
	}
	c.mu.Unlock()
	if w != nil {
		w.ch <- struct{}{}
		if c.st != nil {
			c.st.Signals.Inc()
		}
	} else if c.st != nil {
		c.st.EmptySignals.Inc()
	}
}

// SignalN wakes up to n waiters, one Signal at a time. The baseline has
// no batched wake path — serial signalling is exactly what the TM
// condvar's one-transaction batch is compared against.
func (c *Cond) SignalN(n int) {
	for i := 0; i < n; i++ {
		c.Signal()
	}
}

// Broadcast wakes every parked waiter (the oblivious wake-up of Section
// 3.4: all of them, regardless of predicate).
func (c *Cond) Broadcast() {
	c.mu.Lock()
	w := c.head
	c.head, c.tail = nil, nil
	c.mu.Unlock()
	n := 0
	for ; w != nil; w = w.next {
		w.ch <- struct{}{}
		n++
	}
	if c.st != nil {
		if n > 0 {
			c.st.Broadcasts.Inc()
		} else {
			c.st.EmptySignals.Inc()
		}
	}
}

// Waiters reports the number of currently parked waiters (racy; for tests).
func (c *Cond) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for w := c.head; w != nil; w = w.next {
		n++
	}
	return n
}

func (c *Cond) unlinkLocked(w *waiter) bool {
	var prev *waiter
	for cur := c.head; cur != nil; cur = cur.next {
		if cur == w {
			if prev == nil {
				c.head = cur.next
			} else {
				prev.next = cur.next
			}
			if c.tail == cur {
				c.tail = prev
			}
			cur.next = nil
			return true
		}
		prev = cur
	}
	return false
}
