package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/stm"
)

// The wake-flow machinery (wakeID mint and stamp, batch countdown,
// consumer attribution) rides the hottest path in the stack: every
// notify→post→wake cycle pays it whether or not a tracer is armed. With the tracer disarmed — the steady state — the whole
// stamp+post+consume cycle must stay allocation-free; verify.sh gates
// on this alongside the obs-level EmitFlow guards.
func TestWakeChainDisarmedNoAlloc(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	n := cv.acquireNode()
	defer cv.releaseNode(n)
	if a := testing.AllocsPerRun(1000, func() {
		n.enqueuedNS.Store(monoNS())
		// The full committed-notify hot path: mint and stamp a wakeID,
		// post, consume the banked permit, attribute the wake.
		cv.wakeNode(n, 0, cv.e.NextWakeID())
		n.sem.Wait()
		cv.noteWake(n, obs.WakeByWaiter)
	}); a != 0 {
		t.Errorf("disarmed wake cycle allocates %.1f times per op", a)
	}
}
