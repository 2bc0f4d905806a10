// Package harness drives the paper's evaluation (Section 5): it sweeps
// benchmark × system × thread-count grids, aggregates trials, and formats
// the results in the shape of the paper's figures —
//
//	Figure 1: per-benchmark time-vs-threads on the STM machine (Westmere)
//	Figure 2: the same on the (simulated) HTM machine (Haswell)
//	Figure 3: geometric-mean speedup of each system vs the pthread
//	          baseline
//
// plus Table 1 (synchronization characteristics).
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/parsec"
)

// SweepConfig parameterizes a full evaluation run.
type SweepConfig struct {
	Benchmarks []parsec.Benchmark
	Systems    []facility.Kind
	Machine    parsec.Machine
	MaxThreads int
	Trials     int     // timed trials per cell (the paper averages 5)
	Warmup     int     // untimed warm-up runs per cell
	Scale      float64 // workload scale factor
	Seed       uint64
	Progress   io.Writer // optional live progress log

	// TopThreadsOnly restricts each benchmark to its highest thread count
	// instead of the full 1..MaxThreads curve. The trajectory sweep
	// (parsecbench -sweep) uses this: it varies GOMAXPROCS across runs and
	// wants one saturated cell per (benchmark, system, procs), not the
	// whole figure grid at every procs value.
	TopThreadsOnly bool

	// CollectMetrics attaches fresh TM/condvar instrument sinks to every
	// timed trial and keeps a per-trial snapshot in Cell.Trials (the data
	// WriteMetricsJSON serializes). Histograms are cheap (atomic adds),
	// but collection also allocates per trial, so it is opt-in.
	CollectMetrics bool
	// CVOpts configures every TM condvar the sweep's runs create (notify
	// policy, ablations).
	CVOpts core.Options
	// Tracer, when non-nil, records the event lifecycle of every trial
	// (warm-ups included) into one shared ring buffer.
	Tracer *obs.Tracer
	// Fault, when non-nil and armed, injects deterministic faults into
	// every trial's engine (chaos sweeps). Per-point draw/fire counts are
	// snapshotted into each trial's metrics when CollectMetrics is on.
	Fault *fault.Injector
	// Registry, when non-nil, receives every trial's live metric sources
	// (engine, condvar stats, condvar wait chains, fault counters) for
	// the /debug/cv/* introspection endpoints. Successive trials of the
	// same cell re-register under the same names, so the registry tracks
	// whichever trial is currently running.
	Registry *registry.Registry
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = parsec.All()
	}
	if len(c.Systems) == 0 {
		c.Systems = facility.Kinds
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 8
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 0x5EED
	}
	return c
}

// Cell is one (benchmark, system, threads) measurement.
type Cell struct {
	Benchmark string
	System    facility.Kind
	Threads   int
	Mean      time.Duration
	Min, Max  time.Duration
	Checksum  uint64

	// TM engine statistics summed over trials (zero for LockPthread).
	Commits, Aborts, SerialCommits, EarlyCommits int64

	// Trials holds one instrument snapshot per timed trial when the sweep
	// ran with CollectMetrics; nil otherwise.
	Trials []TrialMetrics
}

// Sweep is the full result grid.
type Sweep struct {
	Config SweepConfig
	Cells  []Cell

	// Meta, when set by the caller (parsecbench stamps bench.Collect()
	// here), rides into WriteMetricsJSON's document so archived result
	// files identify the environment that produced them.
	Meta *bench.RunMeta
}

// Run executes the sweep.
func Run(cfg SweepConfig) *Sweep {
	cfg = cfg.withDefaults()
	sw := &Sweep{Config: cfg}
	for _, b := range cfg.Benchmarks {
		threads := b.Threads(cfg.MaxThreads)
		if cfg.TopThreadsOnly && len(threads) > 1 {
			threads = threads[len(threads)-1:]
		}
		for _, sys := range cfg.Systems {
			for _, th := range threads {
				cell := runCell(cfg, b, sys, th)
				sw.Cells = append(sw.Cells, cell)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-13s %-22s t=%-2d  %10v  (checksum %#x)\n",
						b.Name(), sys, th, cell.Mean.Round(time.Microsecond), cell.Checksum)
				}
			}
		}
	}
	return sw
}

func runCell(cfg SweepConfig, b parsec.Benchmark, sys facility.Kind, threads int) Cell {
	rc := parsec.Config{
		Threads:  threads,
		System:   sys,
		Machine:  cfg.Machine,
		Scale:    cfg.Scale,
		Seed:     cfg.Seed,
		Tracer:   cfg.Tracer,
		Fault:    cfg.Fault,
		Registry: cfg.Registry,
		CVOpts:   cfg.CVOpts,
	}
	for i := 0; i < cfg.Warmup; i++ {
		b.Run(rc)
	}
	cell := Cell{Benchmark: b.Name(), System: sys, Threads: threads}
	var total time.Duration
	for i := 0; i < cfg.Trials; i++ {
		// Fresh condvar sink per trial so each snapshot covers exactly one
		// trial (the engine is already fresh: toolkit() builds one per run).
		if cfg.CollectMetrics && sys != facility.LockPthread {
			rc.CVStats = &core.CVStats{}
		}
		res := b.Run(rc)
		total += res.Elapsed
		if i == 0 || res.Elapsed < cell.Min {
			cell.Min = res.Elapsed
		}
		if res.Elapsed > cell.Max {
			cell.Max = res.Elapsed
		}
		cell.Checksum = res.Checksum
		if res.Engine != nil {
			st := &res.Engine.Stats
			cell.Commits += st.Commits.Load()
			cell.Aborts += st.Aborts.Load()
			cell.SerialCommits += st.SerialCommits.Load()
			cell.EarlyCommits += st.EarlyCommits.Load()
		}
		if cfg.CollectMetrics {
			tm := TrialMetrics{ElapsedNS: res.Elapsed.Nanoseconds()}
			if res.Engine != nil {
				tm.TM = res.Engine.Stats.Snapshot()
				tm.TMHist = res.Engine.Stats.Histograms()
			}
			if rc.CVStats != nil {
				tm.CV = rc.CVStats.Snapshot()
				tm.CVHist = rc.CVStats.Histograms()
			}
			if cfg.Fault != nil {
				tm.Fault = cfg.Fault.Snapshot()
			}
			cell.Trials = append(cell.Trials, tm)
		}
	}
	cell.Mean = total / time.Duration(cfg.Trials)
	return cell
}

// find returns the cell for (bench, sys, threads), or nil.
func (s *Sweep) find(bench string, sys facility.Kind, threads int) *Cell {
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Benchmark == bench && c.System == sys && c.Threads == threads {
			return c
		}
	}
	return nil
}

// benchNames returns the distinct benchmarks in first-seen order.
func (s *Sweep) benchNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range s.Cells {
		if !seen[c.Benchmark] {
			seen[c.Benchmark] = true
			names = append(names, c.Benchmark)
		}
	}
	return names
}

// threadsFor returns the sorted thread counts measured for bench.
func (s *Sweep) threadsFor(bench string) []int {
	set := map[int]bool{}
	for _, c := range s.Cells {
		if c.Benchmark == bench {
			set[c.Threads] = true
		}
	}
	var out []int
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// WriteFigure renders the per-benchmark time-vs-threads tables (the data
// behind Figure 1 or 2, depending on the sweep's machine). Each benchmark
// gets one sub-table with a column per system, like the figure's series.
func (s *Sweep) WriteFigure(w io.Writer, figure string) {
	sub := 'a'
	for _, bench := range s.benchNames() {
		fmt.Fprintf(w, "# Figure %s(%c): %s (%s)\n", figure, sub, bench, s.Config.Machine)
		sub++
		fmt.Fprintf(w, "%-8s", "threads")
		for _, sys := range s.Config.Systems {
			fmt.Fprintf(w, " %22s", sys.String())
		}
		fmt.Fprintln(w)
		for _, th := range s.threadsFor(bench) {
			fmt.Fprintf(w, "%-8d", th)
			for _, sys := range s.Config.Systems {
				if c := s.find(bench, sys, th); c != nil {
					fmt.Fprintf(w, " %22s", fmtDur(c.Mean))
				} else {
					fmt.Fprintf(w, " %22s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// Speedups returns, per benchmark, each system's speedup versus the
// pthread baseline at the benchmark's maximum measured thread count — the
// quantity Figure 3 plots.
func (s *Sweep) Speedups() map[string]map[facility.Kind]float64 {
	out := make(map[string]map[facility.Kind]float64)
	for _, bench := range s.benchNames() {
		threads := s.threadsFor(bench)
		if len(threads) == 0 {
			continue
		}
		top := threads[len(threads)-1]
		base := s.find(bench, facility.LockPthread, top)
		if base == nil || base.Mean <= 0 {
			continue
		}
		m := make(map[facility.Kind]float64)
		for _, sys := range s.Config.Systems {
			if c := s.find(bench, sys, top); c != nil && c.Mean > 0 {
				m[sys] = float64(base.Mean) / float64(c.Mean)
			}
		}
		out[bench] = m
	}
	return out
}

// Geomean aggregates Speedups into the Figure 3 bars: the geometric mean
// speedup of each system across benchmarks.
func (s *Sweep) Geomean() map[facility.Kind]float64 {
	sp := s.Speedups()
	out := make(map[facility.Kind]float64)
	for _, sys := range s.Config.Systems {
		logSum, n := 0.0, 0
		for _, m := range sp {
			if v, ok := m[sys]; ok && v > 0 {
				logSum += math.Log(v)
				n++
			}
		}
		if n > 0 {
			out[sys] = math.Exp(logSum / float64(n))
		}
	}
	return out
}

// WriteSpeedups renders the Figure 3 table: per-benchmark speedups and
// the geometric mean, one column per system.
func (s *Sweep) WriteSpeedups(w io.Writer) {
	fmt.Fprintf(w, "# Figure 3: speedup vs %s baseline (%s)\n",
		facility.LockPthread, s.Config.Machine)
	fmt.Fprintf(w, "%-14s", "benchmark")
	for _, sys := range s.Config.Systems {
		fmt.Fprintf(w, " %22s", sys.String())
	}
	fmt.Fprintln(w)
	sp := s.Speedups()
	for _, bench := range s.benchNames() {
		fmt.Fprintf(w, "%-14s", bench)
		for _, sys := range s.Config.Systems {
			if v, ok := sp[bench][sys]; ok {
				fmt.Fprintf(w, " %22.3f", v)
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "GEOMEAN")
	gm := s.Geomean()
	for _, sys := range s.Config.Systems {
		if v, ok := gm[sys]; ok {
			fmt.Fprintf(w, " %22.3f", v)
		} else {
			fmt.Fprintf(w, " %22s", "-")
		}
	}
	fmt.Fprintln(w)
}

// WriteTMStats renders per-cell TM activity (commits, aborts, serial and
// early commits) for the transactional systems — the diagnostics behind
// the paper's "all transactions are small / no artificial fallbacks"
// claims.
func (s *Sweep) WriteTMStats(w io.Writer) {
	fmt.Fprintf(w, "# TM activity (%s)\n", s.Config.Machine)
	fmt.Fprintf(w, "%-13s %-10s %-3s %12s %12s %10s %10s\n",
		"benchmark", "system", "t", "commits", "aborts", "serial", "early")
	for _, c := range s.Cells {
		if c.System == facility.LockPthread {
			continue
		}
		fmt.Fprintf(w, "%-13s %-10s %-3d %12d %12d %10d %10d\n",
			c.Benchmark, c.System.Short(), c.Threads,
			c.Commits, c.Aborts, c.SerialCommits, c.EarlyCommits)
	}
}

// WriteTable1 renders Table 1: our static synchronization counts next to
// the paper's, with barrier counts in parentheses, and the TOTAL row.
func WriteTable1(w io.Writer, benches []parsec.Benchmark) {
	fmt.Fprintln(w, "# Table 1: Synchronization characteristics (ours | paper)")
	fmt.Fprintf(w, "%-14s %-16s %-22s %-22s\n",
		"Benchmark", "Total Txns", "CondVar Txns", "Refactored Conts")
	var tt, tc, tcb, tr, trb int
	var pt, pc, pcb, pr, prb int
	for _, b := range benches {
		p := b.Profile()
		fmt.Fprintf(w, "%-14s %-16s %-22s %-22s\n", p.Name,
			fmt.Sprintf("%d | %d", p.TotalTransactions, p.PaperTx),
			fmt.Sprintf("%s | %s", paren(p.CondVarTxns, p.CondVarTxnsBarrier),
				paren(p.PaperCondVarTx, p.PaperCondVarTxBarrier)),
			fmt.Sprintf("%s | %s", paren(p.RefactoredConts, p.RefactoredBarrier),
				paren(p.PaperRefactored, p.PaperRefactoredBarrier)))
		tt += p.TotalTransactions
		tc += p.CondVarTxns
		tcb += p.CondVarTxnsBarrier
		tr += p.RefactoredConts
		trb += p.RefactoredBarrier
		pt += p.PaperTx
		pc += p.PaperCondVarTx
		pcb += p.PaperCondVarTxBarrier
		pr += p.PaperRefactored
		prb += p.PaperRefactoredBarrier
	}
	fmt.Fprintf(w, "%-14s %-16s %-22s %-22s\n", "TOTAL",
		fmt.Sprintf("%d | %d", tt, pt),
		fmt.Sprintf("%s | %s", paren(tc, tcb), paren(pc, pcb)),
		fmt.Sprintf("%s | %s", paren(tr, trb), paren(pr, prb)))
}

func paren(n, b int) string {
	if b > 0 {
		return fmt.Sprintf("%d (%d)", n, b)
	}
	return fmt.Sprintf("%d", n)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// Render returns the whole evaluation as one string (figures, speedups,
// TM stats) — what cmd/parsecbench prints.
func (s *Sweep) Render(figure string) string {
	var b strings.Builder
	s.WriteFigure(&b, figure)
	s.WriteSpeedups(&b)
	fmt.Fprintln(&b)
	s.WriteTMStats(&b)
	return b.String()
}

// WriteCSV emits the raw cell grid as CSV (one row per benchmark × system
// × thread count) for external plotting — the machine-readable companion
// to the figure tables.
func (s *Sweep) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "machine,benchmark,system,threads,mean_ns,min_ns,max_ns,checksum,commits,aborts,serial_commits,early_commits")
	for _, c := range s.Cells {
		fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Config.Machine, c.Benchmark, c.System.Short(), c.Threads,
			c.Mean.Nanoseconds(), c.Min.Nanoseconds(), c.Max.Nanoseconds(),
			c.Checksum, c.Commits, c.Aborts, c.SerialCommits, c.EarlyCommits)
	}
}
