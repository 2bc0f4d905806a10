package repro

// Benchmarks regenerating the paper's evaluation artifacts, one family per
// table/figure, plus the ablations DESIGN.md calls out.
//
//	BenchmarkTable1   — Table 1 (static sync characteristics; verified)
//	BenchmarkFig1_*   — Figure 1 (a–h): the 8 PARSEC workloads × 3 systems
//	                    on the STM machine ("Westmere")
//	BenchmarkFig2_*   — Figure 2 (a–h): the same on simulated HTM ("Haswell")
//	BenchmarkFig3     — Figure 3: geometric-mean speedups vs baseline
//	BenchmarkAblation*— design-choice ablations
//
// Absolute times are host-dependent; the paper-comparable quantities are
// the RATIOS between systems at equal thread counts (see EXPERIMENTS.md).

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/birrellcv"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/harness"
	"repro/internal/parsec"
	"repro/internal/pthreadcv"
	"repro/internal/sem"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// benchScale keeps `go test -bench=.` affordable; cmd/parsecbench defaults
// to scale 1.0 for the full-size runs.
const benchScale = 0.5

var benchThreads = []int{1, 2, 4}

func benchFigure(b *testing.B, machine parsec.Machine, name string) {
	bench, err := parsec.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range facility.Kinds {
		for _, th := range bench.Threads(benchThreads[len(benchThreads)-1]) {
			ok := false
			for _, want := range benchThreads {
				if th == want {
					ok = true
				}
			}
			if !ok {
				continue
			}
			b.Run(sys.Short()+"/t"+strconv.Itoa(th), func(b *testing.B) {
				cfg := parsec.Config{Threads: th, System: sys, Machine: machine, Scale: benchScale}
				var check uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := bench.Run(cfg)
					if check == 0 {
						check = res.Checksum
					} else if check != res.Checksum {
						b.Fatalf("nondeterministic checksum: %#x vs %#x", check, res.Checksum)
					}
				}
			})
		}
	}
}

// ---- Table 1 ----

func BenchmarkTable1(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		harness.WriteTable1(&sb, parsec.All())
		if !strings.Contains(sb.String(), "| 65") {
			b.Fatal("Table 1 paper totals corrupted")
		}
	}
}

// ---- Figure 1: Westmere (software TM) ----

func BenchmarkFig1_facesim(b *testing.B)       { benchFigure(b, parsec.Westmere, "facesim") }
func BenchmarkFig1_ferret(b *testing.B)        { benchFigure(b, parsec.Westmere, "ferret") }
func BenchmarkFig1_fluidanimate(b *testing.B)  { benchFigure(b, parsec.Westmere, "fluidanimate") }
func BenchmarkFig1_streamcluster(b *testing.B) { benchFigure(b, parsec.Westmere, "streamcluster") }
func BenchmarkFig1_bodytrack(b *testing.B)     { benchFigure(b, parsec.Westmere, "bodytrack") }
func BenchmarkFig1_x264(b *testing.B)          { benchFigure(b, parsec.Westmere, "x264") }
func BenchmarkFig1_raytrace(b *testing.B)      { benchFigure(b, parsec.Westmere, "raytrace") }
func BenchmarkFig1_dedup(b *testing.B)         { benchFigure(b, parsec.Westmere, "dedup") }

// ---- Figure 2: Haswell (simulated HTM) ----

func BenchmarkFig2_facesim(b *testing.B)       { benchFigure(b, parsec.Haswell, "facesim") }
func BenchmarkFig2_ferret(b *testing.B)        { benchFigure(b, parsec.Haswell, "ferret") }
func BenchmarkFig2_fluidanimate(b *testing.B)  { benchFigure(b, parsec.Haswell, "fluidanimate") }
func BenchmarkFig2_streamcluster(b *testing.B) { benchFigure(b, parsec.Haswell, "streamcluster") }
func BenchmarkFig2_bodytrack(b *testing.B)     { benchFigure(b, parsec.Haswell, "bodytrack") }
func BenchmarkFig2_x264(b *testing.B)          { benchFigure(b, parsec.Haswell, "x264") }
func BenchmarkFig2_raytrace(b *testing.B)      { benchFigure(b, parsec.Haswell, "raytrace") }
func BenchmarkFig2_dedup(b *testing.B)         { benchFigure(b, parsec.Haswell, "dedup") }

// ---- Figure 3: geometric-mean speedup vs pthread baseline ----

func benchFig3(b *testing.B, machine parsec.Machine) {
	for i := 0; i < b.N; i++ {
		sw := harness.Run(harness.SweepConfig{
			Machine:    machine,
			MaxThreads: 2,
			Trials:     1,
			Scale:      0.25,
		})
		gm := sw.Geomean()
		for _, sys := range facility.Kinds {
			if gm[sys] <= 0 {
				b.Fatalf("no geomean for %v", sys)
			}
		}
		if i == 0 {
			b.Logf("geomean speedups (%v): pthreadCV=%.3f TMCV=%.3f TMParsec=%.3f",
				machine, gm[facility.LockPthread], gm[facility.LockTM], gm[facility.Txn])
		}
	}
}

func BenchmarkFig3_Westmere(b *testing.B) { benchFig3(b, parsec.Westmere) }
func BenchmarkFig3_Haswell(b *testing.B)  { benchFig3(b, parsec.Haswell) }

// ---- Section 5.4: the dedup irrevocable-I/O anomaly in isolation ----

func BenchmarkDedupIrrevocable(b *testing.B) {
	bench, _ := parsec.ByName("dedup")
	for _, sys := range []facility.Kind{facility.LockTM, facility.Txn} {
		b.Run(sys.Short(), func(b *testing.B) {
			cfg := parsec.Config{Threads: 4, System: sys, Machine: parsec.Westmere, Scale: benchScale}
			for i := 0; i < b.N; i++ {
				bench.Run(cfg)
			}
		})
	}
}

// ---- Ablations ----

// condvarChurn is the ablation micro-workload: waiters and a notifier
// cycling through a condvar built with the given options on the given
// engine.
func condvarChurn(b *testing.B, e *stm.Engine, opts core.Options, fromTxn bool) {
	cv := core.New(e, opts)
	var m syncx.Mutex
	const waiters = 4
	stop := make(chan struct{})
	done := make(chan struct{}, waiters)
	for w := 0; w < waiters; w++ {
		go func() {
			for {
				select {
				case <-stop:
					done <- struct{}{}
					return
				default:
				}
				m.Lock()
				cv.WaitLocked(&m)
				m.Unlock()
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fromTxn {
			e.MustAtomic(func(tx *stm.Tx) { cv.NotifyOne(tx) })
		} else {
			cv.NotifyOne(nil)
		}
	}
	b.StopTimer()
	close(stop)
	// Keep waking until every worker has observed stop and exited.
	drained := 0
	for drained < waiters {
		cv.NotifyAll(nil)
		select {
		case <-done:
			drained++
		default:
		}
	}
}

// AblationSTMAlg: write-through (ml_wt) vs write-back (TL2) engines under
// identical condvar traffic.
func BenchmarkAblationSTMAlg(b *testing.B) {
	for _, alg := range []stm.Algorithm{stm.AlgWriteThrough, stm.AlgWriteBack, stm.AlgHTM} {
		b.Run(alg.String(), func(b *testing.B) {
			condvarChurn(b, stm.NewEngine(stm.Config{Algorithm: alg}), core.Options{}, true)
		})
	}
}

// AblationDeferredPost: commit-time SEMPOST (the paper's design) vs
// immediate post. Measured on the software engine; on HTM the immediate
// variant aborts every notifier transaction (see the core tests).
func BenchmarkAblationDeferredPost(b *testing.B) {
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"deferred", core.Options{}},
		{"immediate", core.Options{ImmediatePost: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			condvarChurn(b, stm.NewEngine(stm.Config{}), c.opts, true)
		})
	}
}

// AblationPolicy: FIFO vs LIFO wake policy, plus NotifyBest traversal.
func BenchmarkAblationPolicy(b *testing.B) {
	b.Run("fifo", func(b *testing.B) {
		condvarChurn(b, stm.NewEngine(stm.Config{}), core.Options{Policy: core.FIFO}, false)
	})
	b.Run("lifo", func(b *testing.B) {
		condvarChurn(b, stm.NewEngine(stm.Config{}), core.Options{Policy: core.LIFO}, false)
	})
	b.Run("best", func(b *testing.B) {
		e := stm.NewEngine(stm.Config{})
		cv := core.New(e, core.Options{})
		var m syncx.Mutex
		const waiters = 4
		stop := make(chan struct{})
		done := make(chan struct{}, waiters)
		for w := 0; w < waiters; w++ {
			w := w
			go func() {
				for {
					select {
					case <-stop:
						done <- struct{}{}
						return
					default:
					}
					m.Lock()
					s := syncx.NewLockSync(&m)
					cv.WaitTagged(s, w, nil)
				}
			}()
		}
		score := func(tag any) int64 {
			if v, ok := tag.(int); ok {
				return int64(v)
			}
			return -1
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cv.NotifyBest(nil, score)
		}
		b.StopTimer()
		close(stop)
		drained := 0
		for drained < waiters {
			cv.NotifyAll(nil)
			select {
			case <-done:
				drained++
			default:
			}
		}
	})
}

// AblationEmptyCont: nil-continuation fast path (skip lock re-acquire) vs
// an empty but present continuation (full re-establishment).
func BenchmarkAblationEmptyCont(b *testing.B) {
	run := func(b *testing.B, cont func(syncx.Sync)) {
		e := stm.NewEngine(stm.Config{})
		cv := core.New(e, core.Options{})
		var m syncx.Mutex
		ready := make(chan struct{}, 1) // buffered: a wake is never lost
		stop := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Lock()
				s := syncx.NewLockSync(&m)
				cv.Wait(s, cont)
				ready <- struct{}{}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for cv.Len() == 0 {
			}
			cv.NotifyOne(nil)
			<-ready
		}
		b.StopTimer()
		close(stop)
		// Wake the worker until it observes stop; drain stray handshakes.
		for {
			select {
			case <-exited:
				return
			case <-ready:
			default:
			}
			if cv.Len() > 0 {
				cv.NotifyOne(nil)
			}
		}
	}
	b.Run("nil-cont", func(b *testing.B) { run(b, nil) })
	b.Run("empty-cont", func(b *testing.B) { run(b, func(syncx.Sync) {}) })
}

// AblationOrecTable: ownership-record striping — a tiny table maximizes
// false conflicts (distinct Vars hashing to one orec), a large table
// eliminates them. The paper's "all transactions are small → no
// artificial conflicts" observation corresponds to the large-table case.
func BenchmarkAblationOrecTable(b *testing.B) {
	for _, size := range []int{1, 1 << 4, 1 << 14} {
		size := size
		b.Run("orecs-"+strconv.Itoa(size), func(b *testing.B) {
			e := stm.NewEngine(stm.Config{OrecCount: size})
			vars := make([]*stm.Var[int], 16)
			for i := range vars {
				vars[i] = stm.NewVar(e, 0)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					e.MustAtomic(func(tx *stm.Tx) {
						v := vars[i%8]
						stm.Write(tx, v, stm.Read(tx, v)+1)
					})
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vars[8+i%8] // disjoint vars: conflicts only via striping
				e.MustAtomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
			}
			b.StopTimer()
			close(stop)
			<-done
			b.ReportMetric(e.Stats.AbortRate(), "abort-rate")
		})
	}
}

// AblationNodePool: per-wait node pooling on vs off.
func BenchmarkAblationNodePool(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		condvarChurn(b, stm.NewEngine(stm.Config{}), core.Options{}, false)
	})
	b.Run("unpooled", func(b *testing.B) {
		condvarChurn(b, stm.NewEngine(stm.Config{}), core.Options{NoNodePool: true}, false)
	})
}

// AblationRetryVsCondVar: the Section 6/7 comparison — a bounded buffer
// synchronized by Harris-style retry vs by condvar WaitTx re-check loops.
func BenchmarkAblationRetryVsCondVar(b *testing.B) {
	const capacity = 4
	b.Run("retry", func(b *testing.B) {
		e := stm.NewEngine(stm.Config{})
		buf := stm.NewVar(e, 0) // item count; contents don't matter here
		done := make(chan struct{})
		go func() {
			for i := 0; i < b.N; i++ {
				e.MustAtomic(func(tx *stm.Tx) {
					n := stm.Read(tx, buf)
					if n == 0 {
						stm.Retry(tx)
					}
					stm.Write(tx, buf, n-1)
				})
			}
			close(done)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.MustAtomic(func(tx *stm.Tx) {
				n := stm.Read(tx, buf)
				if n >= capacity {
					stm.Retry(tx)
				}
				stm.Write(tx, buf, n+1)
			})
		}
		<-done
	})
	b.Run("condvar", func(b *testing.B) {
		e := stm.NewEngine(stm.Config{})
		buf := stm.NewVar(e, 0)
		notEmpty := core.New(e, core.Options{})
		notFull := core.New(e, core.Options{})
		done := make(chan struct{})
		go func() {
			for i := 0; i < b.N; i++ {
				for {
					ok := false
					e.MustAtomic(func(tx *stm.Tx) {
						ok = false
						n := stm.Read(tx, buf)
						if n == 0 {
							notEmpty.WaitTx(tx)
							return
						}
						stm.Write(tx, buf, n-1)
						notFull.NotifyOne(tx)
						ok = true
					})
					if ok {
						break
					}
				}
			}
			close(done)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				ok := false
				e.MustAtomic(func(tx *stm.Tx) {
					ok = false
					n := stm.Read(tx, buf)
					if n >= capacity {
						notFull.WaitTx(tx)
						return
					}
					stm.Write(tx, buf, n+1)
					notEmpty.NotifyOne(tx)
					ok = true
				})
				if ok {
					break
				}
			}
		}
		<-done
	})
}

// ---- Broadcast wake: one commit handler posting every waiter ----

// benchBroadcastWake parks `waiters` goroutines on one condvar behind a
// generation predicate, then broadcasts once per iteration. It reports
// notify-ns, the time the notifier spends inside NotifyAll (the commit
// handler's serial post loop), and broadcast-ns, the BroadcastNanos
// histogram's commit-to-last-waiter-resumed latency.
func benchBroadcastWake(b *testing.B, waiters int) {
	e := stm.NewEngine(stm.Config{})
	cv := core.New(e, core.Options{})
	st := &core.CVStats{}
	cv.SetStats(st)
	var m syncx.Mutex
	gen := 0 // protected by m; waiters sleep until it advances
	stopped := false
	arrived := make(chan struct{}, waiters)
	exited := make(chan struct{}, waiters)
	for w := 0; w < waiters; w++ {
		go func() {
			seen := 0
			for {
				m.Lock()
				for gen == seen && !stopped {
					cv.WaitLocked(&m)
				}
				if stopped {
					m.Unlock()
					exited <- struct{}{}
					return
				}
				seen = gen
				m.Unlock()
				arrived <- struct{}{}
			}
		}()
	}
	waitParked := func() {
		for cv.Len() < waiters {
			runtime.Gosched()
		}
	}
	waitParked()
	var notifyNS int64 // time the notifier spends inside NotifyAll itself
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lock()
		gen++
		m.Unlock()
		t0 := time.Now()
		n := cv.NotifyAll(nil)
		notifyNS += time.Since(t0).Nanoseconds()
		if n != waiters {
			b.Fatalf("broadcast woke %d of %d waiters", n, waiters)
		}
		for k := 0; k < waiters; k++ {
			<-arrived
		}
		if i+1 < b.N {
			waitParked()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(notifyNS)/float64(b.N), "notify-ns")
	if st.BroadcastNanos.Count() > 0 {
		b.ReportMetric(st.BroadcastNanos.Mean(), "broadcast-ns")
		b.ReportMetric(float64(st.BroadcastNanos.Max()), "broadcast-ns-max")
	}
	m.Lock()
	stopped = true
	m.Unlock()
	drained := 0
	for drained < waiters {
		cv.NotifyAll(nil)
		select {
		case <-exited:
			drained++
		default:
			runtime.Gosched()
		}
	}
}

func BenchmarkBroadcastWake(b *testing.B) {
	for _, waiters := range []int{64, 128} {
		b.Run("w"+strconv.Itoa(waiters), func(b *testing.B) {
			benchBroadcastWake(b, waiters)
		})
	}
}

// SemBatchPost: releasing k parked waiters with one PostN (one lock
// acquisition for the whole batch) versus k serial Posts — the
// sem-layer half of the batched wake path.
func BenchmarkSemBatchPost(b *testing.B) {
	const k = 64
	run := func(b *testing.B, post func(s *sem.Sem)) {
		s := sem.New(0)
		stop := make(chan struct{})
		arrived := make(chan struct{}, k)
		var wg sync.WaitGroup
		wg.Add(k)
		for w := 0; w < k; w++ {
			go func() {
				defer wg.Done()
				for {
					s.Wait()
					select {
					case <-stop:
						return
					default:
					}
					arrived <- struct{}{}
				}
			}()
		}
		waitParked := func() {
			for s.Waiters() < k {
				runtime.Gosched()
			}
		}
		waitParked()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(s)
			for j := 0; j < k; j++ {
				<-arrived
			}
			if i+1 < b.N {
				waitParked()
			}
		}
		b.StopTimer()
		close(stop)
		s.PostN(k) // release the final generation so every worker exits
		wg.Wait()
	}
	b.Run("postn", func(b *testing.B) {
		run(b, func(s *sem.Sem) { s.PostN(k) })
	})
	b.Run("serial-post", func(b *testing.B) {
		run(b, func(s *sem.Sem) {
			for i := 0; i < k; i++ {
				s.Post()
			}
		})
	})
}

// ---- Micro: raw condvar primitive costs across the three lineages ----

func BenchmarkMicroSignalRoundTripTM(b *testing.B) {
	condvarChurn(b, stm.NewEngine(stm.Config{}), core.Options{}, false)
}

// MicroCondVarLineages: signal/wait round trips for the paper's condvar,
// the pthread-style baseline, and Birrell's semaphore construction — the
// three implementation lineages the paper's Sections 3.4 and 6 compare.
func BenchmarkMicroCondVarLineages(b *testing.B) {
	type cond interface {
		Wait(m *syncx.Mutex)
		Signal()
		Broadcast()
	}
	run := func(b *testing.B, c cond, waiters func() int) {
		var m syncx.Mutex
		stop := make(chan struct{})
		done := make(chan struct{}, 4)
		for w := 0; w < 4; w++ {
			go func() {
				for {
					select {
					case <-stop:
						done <- struct{}{}
						return
					default:
					}
					m.Lock()
					c.Wait(&m)
					m.Unlock()
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Signal()
		}
		b.StopTimer()
		close(stop)
		drained := 0
		for drained < 4 {
			c.Broadcast()
			select {
			case <-done:
				drained++
			default:
			}
		}
	}
	b.Run("tmcondvar", func(b *testing.B) {
		lc := core.NewLockCond(core.New(stm.NewEngine(stm.Config{}), core.Options{}))
		run(b, lc, lc.Waiters)
	})
	b.Run("pthreadcv", func(b *testing.B) {
		c := pthreadcv.New(nil)
		run(b, c, c.Waiters)
	})
	b.Run("birrellcv", func(b *testing.B) {
		c := birrellcv.New()
		run(b, c, c.Waiters)
	})
}
