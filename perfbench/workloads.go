package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/facility"
)

// workload describes one benchmark workload: which goroutines drive it
// and how to build an instance of it. BENCHMARK.json records why each
// workload exists.
type workload struct {
	name       string
	goroutines string
	build      func(in *instance)
}

var workloads = []workload{
	{
		name:       "handoff",
		goroutines: "1 producer + 1 consumer",
		build:      buildHandoff,
	},
	{
		name:       "taskqueue",
		goroutines: "1 generator + nproc workers",
		build:      buildTaskQueue,
	},
	{
		name:       "barrier",
		goroutines: "4 parties",
		build:      buildBarrier,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is splitmix64: the only source of input randomness, seeded from
// the -seed argument.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sizes draws n compute sizes uniformly from [lo, hi).
func (r *rng) sizes(n int, lo, hi uint32) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = lo + uint32(r.next()%uint64(hi-lo))
	}
	return s
}

// spin is the seeded compute an operation performs: n xorshift rounds.
func spin(n uint32) uint64 {
	x := uint64(n) | 1
	for i := uint32(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// Inputs are generated once, before the window, into rings the drivers
// cycle through. Each ring holds several seconds of operations.
const (
	itemRing  = 1 << 20 // handoff items
	roundRing = 1 << 18 // barrier rounds, per party
	batchRing = 1 << 10 // taskqueue batches
	batchSize = 64
	parties   = 4
)

// item is what handoff moves through the queue.
type item struct {
	seq  uint64
	size uint32
	t0   int64 // start of the Put call
}

// buildHandoff: one producer, one consumer, a Txn Queue of capacity 1.
// An operation is one item delivered; its latency runs from the start of
// Put to the return of the Get that receives it. The consumer checks
// FIFO order.
func buildHandoff(in *instance) {
	r := rng(in.seed)
	sizes := r.sizes(itemRing, 100, 900)
	q := facility.NewQueue[item](in.toolkit(facility.Txn), 1)
	in.spawn("handoff.item", 0, func(d *driver) {
		for seq := uint64(0); !in.stop.Load(); seq++ {
			d.prepare(in)
			t0 := nowNS()
			d.begin(t0)
			ok := q.Put(item{seq: seq, size: sizes[seq%itemRing], t0: t0})
			t1 := nowNS()
			d.end(t0, t1)
			d.tr.record(kindPut, seq, t0, t1)
			if !ok {
				d.failed.Add(1)
				break
			}
		}
		q.Close()
	})
	in.spawn("handoff.item", 1, func(d *driver) {
		next := uint64(0)
		for {
			d.prepare(in)
			t0 := nowNS()
			d.begin(t0)
			it, ok := q.Get()
			t1 := nowNS()
			d.end(t0, t1)
			if !ok {
				return
			}
			d.tr.record(kindGet, it.seq, t0, t1)
			d.tr.record(kindOp, it.seq, it.t0, t1)
			if it.seq != next || t1-it.t0 > int64(deadline) {
				d.failed.Add(1)
			}
			next = it.seq + 1
			d.rec.add(t1 - it.t0)
			d.sink ^= spin(it.size)
			in.done.Add(1)
		}
	})
	in.finish = func() []string { return quiesced(in) }
	in.built()
}

// taskBatch is one prebuilt batch of tasks. Tasks record when they
// start and count their runs; the generator checks the counts after
// every Drain.
type taskBatch struct {
	start atomic.Int64 // start of the SubmitBatch call that carries the batch
	tasks []func()
	lat   [batchSize]atomic.Int64
	runs  [batchSize]atomic.Int64
	out   [batchSize]atomic.Uint64
	uses  int64 // times the generator has submitted this batch
}

// buildTaskQueue: one generator, a Txn TaskQueue with nproc workers. An
// operation is one task run; its latency runs from the start of the
// SubmitBatch call to the start of the task. Each task must run exactly
// once per submission.
func buildTaskQueue(in *instance) {
	r := rng(in.seed)
	sizes := r.sizes(batchRing*batchSize, 50, 450)
	batches := make([]*taskBatch, batchRing)
	for i := range batches {
		b := &taskBatch{tasks: make([]func(), batchSize)}
		for k := range b.tasks {
			k, size := k, sizes[i*batchSize+k]
			b.tasks[k] = func() {
				b.lat[k].Store(nowNS() - b.start.Load())
				b.out[k].Store(spin(size))
				b.runs[k].Add(1)
			}
		}
		batches[i] = b
	}
	q := facility.NewTaskQueue(in.toolkit(facility.Txn), runtime.GOMAXPROCS(0))
	in.spawn("taskqueue.batch", 1, func(d *driver) {
		for n := uint64(0); !in.stop.Load(); n++ {
			d.prepare(in)
			b := batches[n%batchRing]
			t0 := nowNS()
			d.inflight.Store(t0)
			d.attempted.Add(batchSize)
			b.start.Store(t0)
			q.SubmitBatch(b.tasks)
			t1 := nowNS()
			q.Drain()
			t2 := nowNS()
			d.inflight.Store(0)
			d.tr.record(kindSubmit, n, t0, t1)
			d.tr.record(kindDrain, n, t1, t2)
			d.tr.record(kindOp, n, t0, t2)
			b.uses++
			for k := range b.runs {
				lat := b.lat[k].Load()
				if b.runs[k].Load() != b.uses || lat > int64(deadline) {
					d.failed.Add(1)
				}
				d.rec.add(lat)
				d.sink ^= b.out[k].Load()
			}
			if t2-t0 > int64(deadline) {
				d.failed.Add(1)
			}
			in.done.Add(batchSize)
		}
	})
	in.finish = func() []string {
		q.Close()
		msgs := quiesced(in)
		if p := q.Pending(); p != 0 {
			msgs = append(msgs, fmt.Sprintf("%d tasks pending after Close", p))
		}
		return msgs
	}
	in.built()
}

// buildBarrier: 4 parties on a LockTM Barrier. An operation is one round
// completed; each party records its release latency, from the start of
// the round's last Arrive call to its own Arrive return. The generation
// check: when a party leaves round r, all parties*(r+1) arrivals up to
// and including round r have happened.
func buildBarrier(in *instance) {
	r := rng(in.seed)
	sizes := make([][]uint32, parties)
	for p := range sizes {
		sizes[p] = r.sizes(roundRing, 200, 1800)
	}
	bar := facility.NewBarrier(in.toolkit(facility.LockTM), parties)
	var (
		arrived atomic.Int64
		stopAt  atomic.Int64 // first round no party runs; set by party 0
		// starts[r%4][p] is party p's Arrive start in round r. Four
		// rounds of history suffice: a party cannot start round r+4
		// before every party has left round r+3.
		starts [4][parties]atomic.Int64
	)
	stopAt.Store(math.MaxInt64)
	for p := 0; p < parties; p++ {
		p := p
		in.spawn("barrier.round", 1, func(d *driver) {
			for round := int64(0); round < stopAt.Load(); round++ {
				// Party 0 decides the last round. Every other party reads
				// stopAt only after leaving a round party 0 arrived at
				// after its store, so all parties stop at the same round.
				if p == 0 && in.stop.Load() && stopAt.Load() == math.MaxInt64 {
					stopAt.Store(round + 1)
				}
				d.prepare(in)
				op := uint64(round)*parties + uint64(p)
				tRound := nowNS()
				d.sink ^= spin(sizes[p][round%roundRing])
				t0 := nowNS()
				starts[round%4][p].Store(t0)
				arrived.Add(1)
				d.begin(t0)
				bar.Arrive()
				t1 := nowNS()
				d.end(t0, t1)
				d.tr.record(kindArrive, op, t0, t1)
				d.tr.record(kindOp, op, tRound, t1)
				if arrived.Load() < parties*(round+1) {
					d.failed.Add(1)
				}
				last := int64(0)
				for q := range starts[round%4] {
					last = max(last, starts[round%4][q].Load())
				}
				d.rec.add(t1 - last)
				if p == 0 {
					in.done.Add(1)
				}
			}
		})
	}
	in.finish = func() []string { return quiesced(in) }
	in.built()
}

// quiesced checks that no goroutine is left parked on any of the
// instance's condvars once every driver has returned: a stranded waiter
// is a lost wakeup.
func quiesced(in *instance) []string {
	if n := in.tk.Waiters(); n != 0 {
		return []string{fmt.Sprintf("%d waiters still parked after the run", n)}
	}
	return nil
}
