package main

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/stm"
)

// minBeyond is the number of samples that must lie above a reported
// percentile for it to count as measured rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (the
// smallest sample with at least p% of the samples at or below it) and
// the number of samples strictly beyond its rank. sorted must be in
// ascending order and non-empty; p is in (0, 100].
func percentile(sorted []uint32, p float64) (value uint32, beyond int) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerSnap is one reading of every per-layer instrument the traced run
// reports: the engine's TMStats, the toolkit's CVStats and, through
// CVStats.Sem, the condvar node semaphores. Histograms contribute their
// Count and Sum only; their log2 quantiles are never used.
type layerSnap struct {
	// stm
	Starts, Commits, Aborts, EarlyCommits int64
	CommitCount, CommitNanos, AbortNanos  int64

	// core
	Waits, NotifyOnes, NotifyAlls, NotifyEmpty, Woken int64
	WakeBatchCount, WakeBatchSum                      int64
	EnqToNotifyCount, EnqToNotifyNanos                int64
	NotifyToWakeCount, NotifyToWakeNanos              int64
	BroadcastCount, BroadcastNanos                    int64

	// sem
	SemPosts, SemWaits, SemBlocks, SemSpinWaits int64
	ParkCount, ParkNanos                        int64
}

// readLayers reads the instruments. cv may be nil (no condvar stats
// attached); its fields then read as zero.
func readLayers(e *stm.Engine, cv *core.CVStats) layerSnap {
	t := &e.Stats
	s := layerSnap{
		Starts:       t.Starts.Load(),
		Commits:      t.Commits.Load(),
		Aborts:       t.Aborts.Load(),
		EarlyCommits: t.EarlyCommits.Load(),
		CommitCount:  t.CommitNanos.Count(),
		CommitNanos:  t.CommitNanos.Sum(),
		AbortNanos:   t.AbortNanos.Sum(),
	}
	if cv == nil {
		return s
	}
	s.Waits = cv.Waits.Load()
	s.NotifyOnes = cv.NotifyOnes.Load()
	s.NotifyAlls = cv.NotifyAlls.Load()
	s.NotifyEmpty = cv.NotifyEmpty.Load()
	s.Woken = cv.Woken.Load()
	s.WakeBatchCount, s.WakeBatchSum = cv.WakeBatch.Count(), cv.WakeBatch.Sum()
	s.EnqToNotifyCount, s.EnqToNotifyNanos = cv.EnqueueToNotify.Count(), cv.EnqueueToNotify.Sum()
	s.NotifyToWakeCount, s.NotifyToWakeNanos = cv.NotifyToWake.Count(), cv.NotifyToWake.Sum()
	s.BroadcastCount, s.BroadcastNanos = cv.BroadcastNanos.Count(), cv.BroadcastNanos.Sum()
	s.SemPosts = cv.Sem.Posts.Load()
	s.SemWaits = cv.Sem.Waits.Load()
	s.SemBlocks = cv.Sem.Blocks.Load()
	s.SemSpinWaits = cv.Sem.SpinWaits.Load()
	s.ParkCount, s.ParkNanos = cv.Sem.ParkNanos.Count(), cv.Sem.ParkNanos.Sum()
	return s
}

// sub returns the field-wise difference after - before.
func (after layerSnap) sub(before layerSnap) layerSnap {
	d := after
	d.Starts -= before.Starts
	d.Commits -= before.Commits
	d.Aborts -= before.Aborts
	d.EarlyCommits -= before.EarlyCommits
	d.CommitCount -= before.CommitCount
	d.CommitNanos -= before.CommitNanos
	d.AbortNanos -= before.AbortNanos
	d.Waits -= before.Waits
	d.NotifyOnes -= before.NotifyOnes
	d.NotifyAlls -= before.NotifyAlls
	d.NotifyEmpty -= before.NotifyEmpty
	d.Woken -= before.Woken
	d.WakeBatchCount -= before.WakeBatchCount
	d.WakeBatchSum -= before.WakeBatchSum
	d.EnqToNotifyCount -= before.EnqToNotifyCount
	d.EnqToNotifyNanos -= before.EnqToNotifyNanos
	d.NotifyToWakeCount -= before.NotifyToWakeCount
	d.NotifyToWakeNanos -= before.NotifyToWakeNanos
	d.BroadcastCount -= before.BroadcastCount
	d.BroadcastNanos -= before.BroadcastNanos
	d.SemPosts -= before.SemPosts
	d.SemWaits -= before.SemWaits
	d.SemBlocks -= before.SemBlocks
	d.SemSpinWaits -= before.SemSpinWaits
	d.ParkCount -= before.ParkCount
	d.ParkNanos -= before.ParkNanos
	return d
}

// metric is one named, unit-carrying result value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics turns a window's instrument difference d, the operations
// completed in that window and the facility span totals into the
// per-layer metrics. Means are Sum/Count of the difference; a mean over
// no observations reads 0.
func layerMetrics(d layerSnap, ops int64, spans map[string]spanTotal) []metric {
	f := func(v int64) float64 { return float64(v) }
	perOp := func(v int64) float64 { return ratio(f(v), f(ops)) }
	meanUS := func(sum, count int64) float64 { return ratio(f(sum), f(count)) / 1e3 }
	woke := d.NotifyOnes + d.NotifyAlls
	out := make([]metric, 0, 32)
	for _, name := range facilityCalls {
		st := spans[name]
		out = append(out, metric{"facility." + name + "_us", meanUS(st.Nanos, st.Count), "us"})
	}
	return append(out,
		metric{"stm.attempts", f(d.Starts), "count"},
		metric{"stm.commits", f(d.Commits), "count"},
		metric{"stm.aborts", f(d.Aborts), "count"},
		metric{"stm.commit_ratio", ratio(f(d.Commits), f(d.Starts)), "1"},
		metric{"stm.early_commits", f(d.EarlyCommits), "count"},
		metric{"stm.commits_per_op", perOp(d.Commits), "commits/op"},
		metric{"stm.commit_ns_mean", ratio(f(d.CommitNanos), f(d.CommitCount)), "ns"},
		metric{"stm.commit_ms", f(d.CommitNanos) / 1e6, "ms"},
		metric{"stm.abort_ms", f(d.AbortNanos) / 1e6, "ms"},

		metric{"core.waits", f(d.Waits), "count"},
		metric{"core.waits_per_op", perOp(d.Waits), "waits/op"},
		metric{"core.notify_woke", f(woke), "count"},
		metric{"core.notify_empty", f(d.NotifyEmpty), "count"},
		metric{"core.notify_useful_ratio", ratio(f(woke), f(woke+d.NotifyEmpty)), "1"},
		metric{"core.woken", f(d.Woken), "count"},
		metric{"core.wake_batch_mean", ratio(f(d.WakeBatchSum), f(d.WakeBatchCount)), "waiters"},
		metric{"core.enqueue_to_notify_us", meanUS(d.EnqToNotifyNanos, d.EnqToNotifyCount), "us"},
		metric{"core.notify_to_wake_us", meanUS(d.NotifyToWakeNanos, d.NotifyToWakeCount), "us"},
		metric{"core.broadcast_us", meanUS(d.BroadcastNanos, d.BroadcastCount), "us"},

		metric{"sem.posts", f(d.SemPosts), "count"},
		metric{"sem.waits", f(d.SemWaits), "count"},
		metric{"sem.blocks", f(d.SemBlocks), "count"},
		metric{"sem.spin_waits", f(d.SemSpinWaits), "count"},
		metric{"sem.park_ratio", ratio(f(d.SemBlocks), f(d.SemWaits)), "1"},
		metric{"sem.park_us", meanUS(d.ParkNanos, d.ParkCount), "us"},
		metric{"sem.park_ms", f(d.ParkNanos) / 1e6, "ms"},
	)
}
