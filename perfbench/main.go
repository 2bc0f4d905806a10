// Command perfbench is the repository's benchmark. It drives one of three
// closed-loop workloads (handoff, taskqueue, barrier) through the public
// internal/facility API on the write-through STM engine, checks every
// operation, and prints every metric by name with its unit; the last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// condvar statistics and no tracer attached. With -trace 1 the run
// measures an untraced and a traced instance for half the time each and
// reports the per-layer metrics of the traced one (stm, core, sem and
// facility), plus trace_overhead_ratio. Spans of the traced window are
// kept in memory and written to -spans when the run ends.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload handoff --seed 1 --seconds 10 --trace 0
//
// A lost wakeup shows up as an operation that outlives a 2s deadline;
// the run then prints the seed and the failure and exits 1 at once, since
// the goroutine stuck in the operation cannot be stopped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
)

// config is one invocation's parameters.
type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

// setups is how many times an end-to-end run builds the workload;
// setup_s is the median.
const setups = 25

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "handoff", "workload: handoff, taskqueue or barrier")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "traced run: span output file (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload=%q seconds=%v trace=%d\n",
			*name, *seconds, *trace)
		return 2
	}
	cfg := config{w, *seed, *seconds, *trace == 1, *spans}
	if cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", w.name, cfg.seed)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	meta := bench.Collect()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n",
		w.name, cfg.seed, cfg.seconds, *trace)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q git=%s\n",
		meta.NumCPU, meta.GOMAXPROCS, meta.GoVersion, meta.CPUModel, orUnknown(meta.GitSHA))
	fmt.Fprintf(stdout, "goroutines: %s (GOMAXPROCS=%d)\n", w.goroutines, meta.GOMAXPROCS)

	var res result
	if cfg.trace {
		res = runTraced(cfg, stdout)
	} else {
		res = runEndToEnd(cfg, stdout)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "%-28s %14.6g %-10s failed=%d attempted=%d seed=%d\n", "failed_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), "1", res.Failed, res.Attempted, cfg.seed)
	printResult(stdout, res)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed (workload=%s seed=%d)\n",
			res.Failed, res.Attempted, w.name, cfg.seed)
		return 1
	}
	return 0
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func printResult(out io.Writer, res result) {
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Fprintf(out, "%s\n", line)
}

// fatalf ends the run at once: an operation outlived its deadline (a lost
// wakeup, or a hung drain) and the goroutine stuck in it can never be
// stopped. It prints the seed, the failure and a result marked
// incorrect, then exits 1.
func fatalf(in *instance, format string, args ...any) {
	fmt.Printf("FAILED %s seed=%d: %s\n", in.name, in.seed, fmt.Sprintf(format, args...))
	printResult(os.Stdout, result{Attempted: in.attempted(), Failed: max(in.failed(), 1),
		Metrics: map[string]metric{}})
	os.Exit(1)
}

// build constructs one instance and returns it with its set-up time:
// seeded input generation, engine, toolkit and facility construction,
// and worker start. It starts from a collected heap, so garbage left by
// an earlier set-up is not collected on this one's time.
func build(cfg config, traced bool) (*instance, time.Duration) {
	in := newInstance(cfg.workload.name, cfg.seed, traced)
	runtime.GC()
	t0 := time.Now()
	cfg.workload.build(in)
	return in, time.Since(t0)
}

func (cfg config) window() time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// runEndToEnd builds the workload setups times, keeps the last
// instance, and measures it untraced for the whole window.
func runEndToEnd(cfg config, out io.Writer) result {
	var setupS []float64
	var in *instance
	var attempted, failed int64 // of the abandoned set-ups
	for i := 0; i < setups; i++ {
		if in != nil {
			in.abandon()
			attempted += in.attempted()
			failed += in.failed()
		}
		var d time.Duration
		in, d = build(cfg, false)
		setupS = append(setupS, d.Seconds())
	}
	m := in.measure(cfg.window())
	s := summarize(m)
	in.release()
	metrics := []metric{
		{"throughput_ops_s", s.throughput, "ops/s"},
		{"latency_p50_us", s.p50US, "us"},
		{"latency_p99_us", s.p99US, "us"},
		{"cpu_us_per_op", s.cpuUSPerOp, "us"},
		{"alloc_bytes_per_op", s.allocBPerOp, "B"},
		{"setup_s", median(setupS), "s"},
	}
	details := map[string]string{
		"throughput_ops_s": fmt.Sprintf("median of %d sub-windows, %d ops", len(m.bounds)-1, m.ops),
		"latency_p50_us":   fmt.Sprintf("nearest rank, median of sub-windows, n=%d", s.samples),
		"latency_p99_us": fmt.Sprintf("nearest rank, median of sub-windows, n=%d, min per sub-window n=%d beyond=%d",
			s.samples, s.minSubSamples, s.p99Beyond),
		"setup_s": fmt.Sprintf("median of %d set-ups", setups),
	}
	if s.p99Beyond < minBeyond {
		details["latency_p99_us"] += " (fewer than 10 samples beyond p99: too few samples)"
	}
	if s.dropped > 0 {
		details["latency_p50_us"] += fmt.Sprintf(" (%d samples past the buffers not kept)", s.dropped)
	}
	res := report(out, in, metrics, details)
	res.Attempted += attempted
	res.Failed += failed
	return res
}

// runTraced measures an untraced and then a traced instance for half
// the window each, and reports the traced instance's per-layer metrics.
func runTraced(cfg config, out io.Writer) result {
	half := cfg.window() / 2
	plain, _ := build(cfg, false)
	untraced := summarize(plain.measure(half))
	plain.release()

	in, _ := build(cfg, true)
	m := in.measure(half)
	traced := summarize(m)
	metrics := layerMetrics(m.layers, m.ops, m.spans)
	metrics = append(metrics, metric{"trace_overhead_ratio", ratio(untraced.throughput, traced.throughput), "1"})
	details := map[string]string{
		"trace_overhead_ratio": fmt.Sprintf("untraced %.6g ops/s / traced %.6g ops/s", untraced.throughput, traced.throughput),
	}
	if err := in.traces().write(cfg.spans, cfg.workload.name, cfg.seed); err != nil {
		fmt.Fprintf(out, "spans: not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "spans: %s\n", cfg.spans)
	}
	in.release()
	res := report(out, in, metrics, details)
	res.Attempted += plain.attempted()
	res.Failed += plain.failed()
	return res
}

// report prints one line per metric and returns the result.
func report(out io.Writer, in *instance, metrics []metric, details map[string]string) result {
	res := result{Attempted: in.attempted(), Failed: in.failed(), Metrics: map[string]metric{}}
	for _, m := range metrics {
		fmt.Fprintf(out, "%-28s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, details[m.Name])
		res.Metrics[m.Name] = m
	}
	return res
}
