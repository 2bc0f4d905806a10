package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/stm"
)

// epoch anchors every timestamp the benchmark takes: monotonic
// nanoseconds since process start fit an atomic.Int64.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// subWindows is how many equal parts a window of the given length is
// cut into: one a second, and at least 10. Throughput, CPU, allocation
// and latency percentiles are computed per part and reported as the
// median over the parts, so a stall caused by another tenant of the
// host moves one part, not the result.
func subWindows(length time.Duration) int {
	return max(10, int(length.Seconds()+0.5))
}

// window is the measured interval as the drivers see it: sub is the
// index of the current sub-window, -1 before the window opens and n once
// it has closed. Samples and spans are recorded only while it is open.
type window struct {
	sub atomic.Int32
	n   int // sub-windows; set before the window opens
}

func newWindow() *window {
	w := &window{}
	w.sub.Store(-1)
	return w
}

// current returns the index of the current sub-window, or -1 when the
// window is not open.
func (w *window) current() int {
	k := int(w.sub.Load())
	if k < 0 || k >= w.n {
		return -1
	}
	return k
}

// recorder keeps one driver's latency samples in ns, in the order they
// were recorded, and marks[k], the index of the first sample recorded in
// sub-window k. Its off-heap sample buffer and its marks are allocated
// by the owning driver before the window opens (see driver.prepare), so
// recording allocates nothing; samples past the buffer's capacity are
// counted, not kept.
type recorder struct {
	w       *window
	s       []uint32
	marks   []int
	dropped int64
}

func (r *recorder) add(lat int64) {
	k := r.w.current()
	if k < 0 {
		return
	}
	for len(r.marks) <= k {
		r.marks = append(r.marks, len(r.s))
	}
	if len(r.s) == cap(r.s) {
		r.dropped++
		return
	}
	r.s = append(r.s, uint32(min(max(lat, 0), math.MaxUint32)))
}

// subWindow returns the samples recorded in sub-window k. Call it only
// after the window has closed.
func (r *recorder) subWindow(k int) []uint32 {
	if k >= len(r.marks) {
		return nil
	}
	if k+1 < len(r.marks) {
		return r.s[r.marks[k]:r.marks[k+1]]
	}
	return r.s[r.marks[k]:]
}

// driver is the state of one goroutine the benchmark drives the
// facility from. Counters are atomics so the coordinator and the
// watchdog can read them while the driver runs.
type driver struct {
	inflight  atomic.Int64 // start of the operation in progress, 0 if none
	attempted atomic.Int64
	failed    atomic.Int64
	capHint   atomic.Int64 // sample capacity to allocate, 0 until known
	perOp     float64      // latency samples recorded per completed operation
	ready     atomic.Bool  // the sample buffer has been mapped
	rec       recorder
	unmap     []func() // releases the driver's off-heap buffers
	tr        *tracer  // nil in untraced runs
	sink      uint64   // compute results, kept so the compute is not elided
	_         [64]byte
}

// begin marks an operation in flight for the watchdog.
func (d *driver) begin(t int64) { d.inflight.Store(t); d.attempted.Add(1) }

// deadline bounds every operation: one that takes longer fails, and one
// still in flight past it ends the run (see watch).
const deadline = 2 * time.Second

// end clears the in-flight mark and checks the operation's deadline.
func (d *driver) end(start, end int64) {
	d.inflight.Store(0)
	if end-start > int64(deadline) {
		d.failed.Add(1)
	}
}

// prepare maps the sample buffer once the coordinator has published a
// capacity. Drivers call it once per operation; it costs one atomic
// load after the buffer exists.
func (d *driver) prepare(in *instance) {
	if d.ready.Load() {
		return
	}
	if n := d.capHint.Load(); n > 0 {
		s, unmap, err := offHeap[uint32](int(n))
		if err != nil {
			fatalf(in, "%v", err)
		}
		d.rec.s = s
		d.rec.marks = make([]int, 0, in.w.n)
		d.unmap = append(d.unmap, unmap)
		d.ready.Store(true)
	}
}

// instance is one constructed workload: inputs, engine, toolkit,
// facility and the goroutines driving it.
type instance struct {
	name    string
	seed    uint64
	w       *window
	tk      *facility.Toolkit
	cvStats *core.CVStats // attached in traced runs only
	traced  bool

	stop  atomic.Bool
	done  atomic.Int64 // operations completed
	gate  chan struct{}
	ready sync.WaitGroup
	wg    sync.WaitGroup

	drivers []*driver
	// extraFailed counts failures found outside the drivers (finish).
	extraFailed atomic.Int64
	// finish runs after every driver has returned: it closes the
	// facility and runs the end-of-run checks, returning a description
	// of each failure found.
	finish func() []string
}

func newInstance(name string, seed uint64, traced bool) *instance {
	return &instance{
		name:   name,
		seed:   seed,
		w:      newWindow(),
		traced: traced,
		gate:   make(chan struct{}),
	}
}

// toolkit builds the engine and toolkit: the write-through STM engine
// (the paper's "Westmere" configuration) and, in traced runs, a CVStats
// attached to every condvar the toolkit hands out.
func (in *instance) toolkit(kind facility.Kind) *facility.Toolkit {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough, Name: in.name})
	in.tk = &facility.Toolkit{Kind: kind, Engine: e}
	if in.traced {
		in.cvStats = &core.CVStats{}
		in.tk.CVStats = in.cvStats
	}
	return in.tk
}

// spawn starts a driver goroutine that waits on the start gate before
// running body. Construction counts a goroutine as started once it is
// waiting on the gate.
func (in *instance) spawn(root string, samplesPerOp float64, body func(d *driver)) {
	d := &driver{rec: recorder{w: in.w}, perOp: samplesPerOp}
	if in.traced {
		d.tr = &tracer{root: root, w: in.w}
	}
	in.drivers = append(in.drivers, d)
	in.wg.Add(1)
	in.ready.Add(1)
	go func() {
		defer in.wg.Done()
		in.ready.Done()
		<-in.gate
		body(d)
	}()
}

// maxKeptSpans bounds the spans a traced run keeps in memory in total;
// spans past the bound still feed the per-kind totals.
const maxKeptSpans = 1 << 16

// built finishes construction: it maps the span buffers and waits until
// every driver goroutine is waiting on the start gate.
func (in *instance) built() {
	if in.traced {
		for _, d := range in.drivers {
			s, unmap, err := offHeap[span](maxKeptSpans / len(in.drivers))
			if err != nil {
				fatalf(in, "%v", err)
			}
			d.tr.spans = s
			d.unmap = append(d.unmap, unmap)
		}
	}
	in.ready.Wait()
}

// abandon stops an instance that was built but never measured.
func (in *instance) abandon() {
	close(in.gate)
	in.stopAndCheck()
	in.release()
}

// stopAndCheck stops the drivers, waits for them to return, closes the
// facility and runs the end-of-run checks, printing each failure. A stop
// that does not complete within the deadline (a goroutine left waiting
// for a wakeup that never comes) ends the run.
func (in *instance) stopAndCheck() {
	in.stop.Store(true)
	var msgs []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.wg.Wait()
		msgs = in.finish()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		fatalf(in, "stopping the workload took longer than %v (lost wakeup?)", deadline)
	}
	for _, msg := range msgs {
		in.extraFailed.Add(1)
		fmt.Printf("FAILED %s seed=%d: %s\n", in.name, in.seed, msg)
	}
}

// release unmaps the drivers' sample and span buffers. Call it once the
// instance's samples and spans are no longer read.
func (in *instance) release() {
	for _, d := range in.drivers {
		for _, unmap := range d.unmap {
			unmap()
		}
		d.unmap = nil
		d.rec.s = nil
		if d.tr != nil {
			d.tr.spans = nil
		}
	}
}

func (in *instance) attempted() int64 {
	var n int64
	for _, d := range in.drivers {
		n += d.attempted.Load()
	}
	return n
}

func (in *instance) failed() int64 {
	n := in.extraFailed.Load()
	for _, d := range in.drivers {
		n += d.failed.Load()
	}
	return n
}

// boundary is one reading taken at a sub-window boundary.
type boundary struct {
	t, ops, cpuNS int64
	alloc         uint64
}

// cpuNS returns the process's user+sys CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // fails only for a bad pointer or selector
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (in *instance) read() boundary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return boundary{t: nowNS(), ops: in.done.Load(), cpuNS: cpuNS(), alloc: ms.TotalAlloc}
}

// measurement is what one measured window produced.
type measurement struct {
	bounds  []boundary
	recs    []*recorder // each driver's samples; valid until release
	dropped int64       // samples past the buffers' capacity
	layers  layerSnap
	spans   map[string]spanTotal
	ops     int64
}

// watch fails the run when any driver's in-flight operation outlives
// the deadline. It returns a function that stops the watchdog and waits
// for it to exit.
func (in *instance) watch() (stop func()) {
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			now := nowNS()
			for i, d := range in.drivers {
				if t := d.inflight.Load(); t != 0 && now-t > int64(deadline) {
					d.failed.Add(1)
					fatalf(in, "driver %d: operation in flight for %v, deadline %v (lost wakeup?)",
						i, time.Duration(now-t), deadline)
				}
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// measure runs a built instance: warm-up, then a window of the given
// length cut into subWindows parts, then a stop and the end-of-run
// checks. It returns the window's readings and samples.
func (in *instance) measure(length time.Duration) measurement {
	stopWatch := in.watch()
	defer stopWatch()

	close(in.gate)
	warm := min(max(length/5, 20*time.Millisecond), time.Second)
	w0 := in.read()
	time.Sleep(warm)
	w1 := in.read()

	// Size the sample buffers from the warm-up rate with ample headroom
	// (only the pages that fill become resident), and let every driver
	// map its buffer before the window opens.
	rate := float64(w1.ops-w0.ops) / time.Duration(w1.t-w0.t).Seconds()
	n := subWindows(length)
	in.w.n = n
	for _, d := range in.drivers {
		d.capHint.Store(int64(rate*d.perOp*length.Seconds()*3) + 4096)
	}
	for giveUp := time.Now().Add(deadline); ; {
		all := true
		for _, d := range in.drivers {
			all = all && d.ready.Load()
		}
		if all {
			break
		}
		if time.Now().After(giveUp) {
			fatalf(in, "drivers did not reach an operation boundary within %v", deadline)
		}
		time.Sleep(time.Millisecond)
	}

	var m measurement
	var layers0 layerSnap
	if in.traced {
		layers0 = readLayers(in.tk.Engine, in.cvStats)
	}
	b := in.read()
	in.w.sub.Store(0)
	m.bounds = append(m.bounds, b)
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(epoch.Add(time.Duration(b.t) + length*time.Duration(k)/time.Duration(n))))
		m.bounds = append(m.bounds, in.read())
		in.w.sub.Store(int32(k))
	}
	last := m.bounds[n]
	if in.traced {
		m.layers = readLayers(in.tk.Engine, in.cvStats).sub(layers0)
	}
	m.ops = last.ops - m.bounds[0].ops

	in.stopAndCheck()
	for _, d := range in.drivers {
		m.recs = append(m.recs, &d.rec)
		m.dropped += d.rec.dropped
	}
	if in.traced {
		m.spans = in.traces().totals()
	}
	return m
}

// traces returns the tracers of a traced instance.
func (in *instance) traces() traceSet {
	ts := make(traceSet, 0, len(in.drivers))
	for _, d := range in.drivers {
		if d.tr != nil {
			ts = append(ts, d.tr)
		}
	}
	return ts
}

// summary is the end-to-end result of one measurement: medians over the
// sub-windows.
type summary struct {
	throughput, p50US, p99US, cpuUSPerOp, allocBPerOp float64
	samples                                           int // samples in the window
	dropped                                           int64
	minSubSamples                                     int // fewest samples in any sub-window
	p99Beyond                                         int // fewest samples beyond p99 in any sub-window
}

// summarize computes the end-to-end metrics of a measurement.
func summarize(m measurement) summary {
	b := m.bounds
	out := summary{dropped: m.dropped, minSubSamples: math.MaxInt, p99Beyond: math.MaxInt}
	var tput, cpu, alloc, p50, p99 []float64
	var lat []uint32
	for k := 0; k < len(b)-1; k++ {
		ops := float64(b[k+1].ops - b[k].ops)
		tput = append(tput, ops/time.Duration(b[k+1].t-b[k].t).Seconds())
		cpu = append(cpu, ratio(float64(b[k+1].cpuNS-b[k].cpuNS)/1e3, ops))
		alloc = append(alloc, ratio(float64(b[k+1].alloc-b[k].alloc), ops))
		lat = lat[:0]
		for _, r := range m.recs {
			lat = append(lat, r.subWindow(k)...)
		}
		out.samples += len(lat)
		out.minSubSamples = min(out.minSubSamples, len(lat))
		if len(lat) == 0 {
			out.p99Beyond = 0
			continue
		}
		slices.Sort(lat)
		v50, _ := percentile(lat, 50)
		v99, beyond := percentile(lat, 99)
		p50 = append(p50, float64(v50)/1e3)
		p99 = append(p99, float64(v99)/1e3)
		out.p99Beyond = min(out.p99Beyond, beyond)
	}
	out.throughput = median(tput)
	out.cpuUSPerOp = median(cpu)
	out.allocBPerOp = median(alloc)
	out.p50US = median(p50)
	out.p99US = median(p99)
	return out
}
