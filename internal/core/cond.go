package core

import (
	"repro/internal/stm"
	"repro/internal/syncx"
)

// LockCond adapts a CondVar to the pthread-shaped interface used by
// lock-based code (Wait/Signal/Broadcast over a held syncx.Mutex). This is
// exactly the paper's Parsec+TMCondVar configuration: the application
// keeps its locks and its condvar call sites, and only the condition
// variable library underneath changes — transactions are used internally
// to protect the wait queue.
//
// It is drop-in compatible with pthreadcv.Cond, with one semantic upgrade:
// Wait never returns spuriously. (Callers coded with the defensive
// while-loop keep working, of course.)
type LockCond struct {
	cv *CondVar
}

// NewLockCond wraps cv in the legacy interface.
func NewLockCond(cv *CondVar) *LockCond { return &LockCond{cv: cv} }

// CondVar exposes the wrapped transaction-friendly condvar.
func (c *LockCond) CondVar() *CondVar { return c.cv }

// Wait releases m, sleeps until notified, and re-acquires m.
func (c *LockCond) Wait(m *syncx.Mutex) { c.cv.WaitLocked(m) }

// Signal wakes one waiter, if any (a "naked notify" into the condvar's own
// transaction; the signal fires immediately).
func (c *LockCond) Signal() { c.cv.NotifyOne(nil) }

// SignalN wakes up to n waiters as one batch (a single dequeue
// transaction and one commit handler; see CondVar.NotifyN).
func (c *LockCond) SignalN(n int) { c.cv.NotifyN(nil, n) }

// Broadcast wakes every waiter.
func (c *LockCond) Broadcast() { c.cv.NotifyAll(nil) }

// Waiters reports the current queue length (for tests).
func (c *LockCond) Waiters() int { return c.cv.Len() }

// TxCond is the transactional face of a CondVar, a small convenience
// wrapper used by the TMParsec facilities: all operations take the live
// transaction.
type TxCond struct {
	cv *CondVar
}

// NewTxCond wraps cv for transactional callers.
func NewTxCond(cv *CondVar) *TxCond { return &TxCond{cv: cv} }

// CondVar exposes the wrapped condvar.
func (c *TxCond) CondVar() *CondVar { return c.cv }

// Wait enqueues inside tx, commits tx early, and sleeps; see
// CondVar.WaitTx for the required caller loop.
func (c *TxCond) Wait(tx *stm.Tx) { c.cv.WaitTx(tx) }

// Signal wakes one waiter when tx commits.
func (c *TxCond) Signal(tx *stm.Tx) { c.cv.NotifyOne(tx) }

// SignalN wakes up to n waiters as one batch when tx commits.
func (c *TxCond) SignalN(tx *stm.Tx, n int) { c.cv.NotifyN(tx, n) }

// Broadcast wakes all current waiters when tx commits.
func (c *TxCond) Broadcast(tx *stm.Tx) { c.cv.NotifyAll(tx) }
