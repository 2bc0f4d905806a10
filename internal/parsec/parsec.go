// Package parsec reimplements the eight PARSEC benchmarks the paper
// evaluates (Section 5.2) as self-contained Go workloads: facesim,
// ferret, fluidanimate, streamcluster, bodytrack, x264, raytrace and
// dedup. Each workload keeps the benchmark's characteristic computation
// (scaled down, with deterministic synthetic inputs) and — crucially for
// this reproduction — its exact condition-synchronization pattern:
//
//	facesim       dynamic load-balanced task queue + master drain
//	ferret        6-stage pipeline, per-stage pools and queues
//	fluidanimate  condvar-based barrier
//	streamcluster barrier + master/slaves work distribution
//	bodytrack     barrier + synchronization queue + persistent pool
//	x264          reference-frame progress synchronization
//	raytrace      multi-threaded tile task queue
//	dedup         5-stage pipeline + ordered output with I/O
//
// Every workload runs under the paper's three systems (facility.Kind):
// locks + pthread-style condvars, locks + TM condvars, and transactions +
// TM condvars, and produces a checksum that must be identical across
// systems at a fixed thread count — the cross-system determinism check the
// test suite leans on.
package parsec

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/stm"
)

// Machine selects the TM substrate, mirroring the paper's two platforms.
type Machine int

const (
	// Westmere runs transactions on the software write-through engine
	// (GCC ml_wt in the paper).
	Westmere Machine = iota
	// Haswell runs transactions on the simulated best-effort HTM.
	Haswell
)

func (m Machine) String() string {
	switch m {
	case Westmere:
		return "westmere"
	case Haswell:
		return "haswell"
	default:
		return "unknown"
	}
}

// Algorithm returns the STM algorithm the machine uses.
func (m Machine) Algorithm() stm.Algorithm {
	if m == Haswell {
		return stm.AlgHTM
	}
	return stm.AlgWriteThrough
}

// Config parameterizes one benchmark run.
type Config struct {
	Threads int           // worker parallelism
	System  facility.Kind // which of the three systems
	Machine Machine       // TM substrate for the TM-based systems
	Scale   float64       // input-size multiplier; 1.0 = test scale
	Seed    uint64        // workload RNG seed (deterministic inputs)

	// Tracer, when non-nil, is attached to the run's engine: the full
	// txn/condvar/semaphore event lifecycle is recorded into it (no-op on
	// the pthread system, which has no engine).
	Tracer *obs.Tracer
	// CVStats, when non-nil, aggregates condvar activity and wait-latency
	// histograms across all the run's TM condvars.
	CVStats *core.CVStats
	// CVOpts configures every TM condvar the run creates (notify policy,
	// ablations; no-op on the pthread system).
	CVOpts core.Options
	// Fault, when non-nil, is attached to the run's engine so chaos
	// sweeps can inject deterministic faults into the benchmark's
	// transactions and condvars (no-op on the pthread system).
	Fault *fault.Injector
	// Registry, when non-nil, receives the run's live metric sources —
	// engine counters/histograms, aggregate CVStats (when CVStats is
	// set), fault-point counters (when Fault is set), and every condvar
	// as a queue-depth/wait-chain source — for the /debug/cv/* endpoints
	// (DESIGN.md §10). No-op on the pthread system, which has no engine.
	Registry *registry.Registry
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 0x5EED
	}
	return c
}

// scaled applies the scale factor to a base size with a floor of 1.
func (c Config) scaled(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// toolkit builds the facility toolkit (and engine, when needed) for a run.
func (c Config) toolkit() *facility.Toolkit {
	tk := &facility.Toolkit{Kind: c.System, CVStats: c.CVStats, CVOpts: c.CVOpts}
	if c.System != facility.LockPthread {
		tk.Engine = stm.NewEngine(stm.Config{
			Algorithm: c.Machine.Algorithm(),
			Name:      fmt.Sprintf("%s/%s", c.Machine, c.System.Short()),
		})
		tk.Engine.SetTracer(c.Tracer)
		tk.Engine.SetFault(c.Fault)
		if c.Registry != nil {
			name := tk.Engine.Name()
			tk.Engine.RegisterMetrics(c.Registry)
			if c.CVStats != nil {
				c.CVStats.RegisterMetrics(c.Registry, registry.Labels{"engine": name})
			}
			c.Fault.RegisterMetrics(c.Registry, registry.Labels{"engine": name})
			tk.Introspect = c.Registry
			tk.IntrospectPrefix = name
		}
	}
	return tk
}

// Result is one benchmark run's outcome.
type Result struct {
	Elapsed  time.Duration
	Checksum uint64      // must match across systems at equal Threads
	Engine   *stm.Engine // nil for the pthread system; carries TM stats
}

// SyncProfile is the Table 1 row for a benchmark: static counts of the
// atomic sites in OUR transactionalized implementation (application code
// plus the facility variants it instantiates). Numbers in parentheses in
// the paper count barrier-related sites; they are split out here the same
// way. PaperTx etc. record the original paper's counts for side-by-side
// printing.
type SyncProfile struct {
	Name string

	TotalTransactions  int // distinct atomic blocks in the Txn configuration
	CondVarTxns        int // of which contain condvar operations
	CondVarTxnsBarrier int // of those, barrier-implementation sites
	RefactoredConts    int // wait sites split by manual refactoring (WaitTx)
	RefactoredBarrier  int // of those, barrier sites

	PaperTx, PaperCondVarTx, PaperCondVarTxBarrier int
	PaperRefactored, PaperRefactoredBarrier        int
}

// Benchmark is one PARSEC workload.
type Benchmark interface {
	// Name returns the PARSEC benchmark name.
	Name() string
	// Run executes the workload under cfg and reports the result.
	Run(cfg Config) Result
	// Profile returns the Table 1 synchronization characteristics.
	Profile() SyncProfile
	// Threads returns the thread counts the benchmark supports up to
	// max (facesim's input pins its thread counts; fluidanimate needs
	// powers of two — Section 5.2).
	Threads(max int) []int
}

// All returns the eight benchmarks in the paper's Table 1 order.
func All() []Benchmark {
	return []Benchmark{
		NewFacesim(),
		NewFerret(),
		NewFluidanimate(),
		NewStreamcluster(),
		NewBodytrack(),
		NewX264(),
		NewRaytrace(),
		NewDedup(),
	}
}

// ByName returns the named benchmark or an error.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("parsec: unknown benchmark %q", name)
}

// defaultThreads returns 1..max (every integer), the generic ladder.
func defaultThreads(max int) []int {
	var out []int
	for t := 1; t <= max; t++ {
		out = append(out, t)
	}
	return out
}

// pow2Threads returns the powers of two up to max (fluidanimate's rule).
func pow2Threads(max int) []int {
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	return out
}

// mix64 is SplitMix64, the deterministic input generator used by every
// workload.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a tiny deterministic generator for workload inputs.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s = mix64(r.s)
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()%1_000_000) / 1_000_000 }

// quant quantizes a float for checksum purposes (stable across platforms
// for the magnitudes our kernels produce).
func quant(f float64) uint64 { return uint64(int64(f * 4096)) }
