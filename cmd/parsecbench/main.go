// Command parsecbench regenerates the paper's evaluation (Section 5):
// Figures 1 and 2 (per-benchmark time vs threads under the three systems,
// on the STM "westmere" and simulated-HTM "haswell" machines) and Figure 3
// (geometric-mean speedup vs the pthread baseline).
//
// Usage:
//
//	parsecbench [flags]
//
//	-machine westmere|haswell   TM substrate (default westmere → Figure 1)
//	-bench   name[,name...]     subset of benchmarks (default: all eight)
//	-threads N                  max thread count (default 8)
//	-trials  N                  timed trials per cell (default 3; paper used 5)
//	-warmup  N                  untimed warm-up runs per cell (default 1)
//	-preset  name               test / simsmall / native / large inputs
//	-scale   F                  explicit scale factor (overrides -preset)
//	-seed    N                  input seed
//	-summary                    print only the Figure 3 speedup table
//	-quiet                      suppress live progress lines
//	-metrics                    print the per-trial metrics snapshot as JSON
//	-trace out.json             record a Chrome trace_event file of the run
//	-tracebuf N                 trace ring-buffer capacity in events
//	-resultdir dir              per-run JSON results directory ("" disables)
//	-introspect addr            serve /debug/cv/* live endpoints while running
//	-profile                    enable STM contention attribution
//	-sweep "1,2,4"              trajectory mode: run the matrix once per
//	                            GOMAXPROCS value, write a BENCH_*.json doc
//	-benchout path              sweep output path (default BENCH_<host>_<date>.json)
//
// Examples:
//
//	parsecbench -machine westmere              # Figure 1 data + Figure 3(a)
//	parsecbench -machine haswell               # Figure 2 data + Figure 3(b)
//	parsecbench -bench dedup -threads 4        # just the dedup anomaly
//	parsecbench -trace t.json -metrics         # trace + metrics JSON
//	parsecbench -preset test -sweep 1,2        # trajectory document
//	                                           # (compare with cmd/benchdiff)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/registry"
	"repro/internal/parsec"
	"repro/internal/stm"
	"repro/internal/waketrace"
)

func main() {
	machine := flag.String("machine", "westmere", "TM substrate: westmere (STM) or haswell (simulated HTM)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	threads := flag.Int("threads", 8, "maximum thread count")
	trials := flag.Int("trials", 3, "timed trials per configuration")
	warmup := flag.Int("warmup", 1, "warm-up runs per configuration")
	scale := flag.Float64("scale", 0, "workload scale factor (overrides -preset)")
	preset := flag.String("preset", "native", "input preset: test (0.25), simsmall (0.5), native (1.0), large (2.0)")
	seed := flag.Uint64("seed", 0x5EED, "workload input seed")
	summary := flag.Bool("summary", false, "print only the Figure 3 speedup table")
	csv := flag.Bool("csv", false, "emit the raw grid as CSV instead of tables")
	metrics := flag.Bool("metrics", false, "emit the per-trial metrics snapshot as JSON instead of tables")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the run's event lifecycle")
	traceBuf := flag.Int("tracebuf", 1<<20, "trace ring-buffer capacity in events")
	resultDir := flag.String("resultdir", "results", "directory for per-run JSON result files (\"\" disables)")
	introspectAddr := flag.String("introspect", "", "serve /debug/cv/* live-introspection endpoints on this address (e.g. 127.0.0.1:6070)")
	quiet := flag.Bool("quiet", false, "suppress live progress")
	profile := flag.Bool("profile", false, "enable STM contention attribution (per-Var conflict counters; auto-on with -introspect)")
	sweepList := flag.String("sweep", "", "trajectory mode: comma-separated GOMAXPROCS list (e.g. \"1,2,4\"); writes a BENCH_*.json document and exits")
	benchOut := flag.String("benchout", "", "trajectory output path (default BENCH_<host>_<date>.json in the current directory)")
	flag.Parse()

	effScale := *scale
	if effScale <= 0 {
		switch *preset {
		case "test":
			effScale = 0.25
		case "simsmall":
			effScale = 0.5
		case "native":
			effScale = 1.0
		case "large":
			effScale = 2.0
		default:
			fmt.Fprintf(os.Stderr, "parsecbench: unknown preset %q\n", *preset)
			os.Exit(2)
		}
	}

	var m parsec.Machine
	var figure string
	switch *machine {
	case "westmere":
		m, figure = parsec.Westmere, "1"
	case "haswell":
		m, figure = parsec.Haswell, "2"
	default:
		fmt.Fprintf(os.Stderr, "parsecbench: unknown machine %q (want westmere or haswell)\n", *machine)
		os.Exit(2)
	}

	var benches []parsec.Benchmark
	if *benchList != "" {
		for _, name := range strings.Split(*benchList, ",") {
			b, err := parsec.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "parsecbench:", err)
				os.Exit(2)
			}
			benches = append(benches, b)
		}
	}

	cfg := harness.SweepConfig{
		Benchmarks: benches,
		Machine:    m,
		MaxThreads: *threads,
		Trials:     *trials,
		Warmup:     *warmup,
		Scale:      effScale,
		Seed:       *seed,
		// The per-run result files carry the full per-trial snapshots, so
		// collection is on whenever either JSON output is wanted.
		CollectMetrics: *metrics || *resultDir != "",
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *tracePath != "" {
		cfg.Tracer = obs.NewTracer(*traceBuf)
		cfg.Tracer.Enable()
	}
	if *introspectAddr != "" {
		// The scrape surface needs live sources: per-trial CVStats (so
		// CollectMetrics goes on) and a tracer behind /debug/cv/trace
		// (a private ring when -trace didn't ask for a file).
		cfg.CollectMetrics = true
		if cfg.Tracer == nil {
			cfg.Tracer = obs.NewTracer(*traceBuf)
			cfg.Tracer.Enable()
		}
		cfg.Registry = registry.Default
		cfg.Registry.SetTracer(cfg.Tracer)
		srv, err := introspect.Start(introspect.Options{Addr: *introspectAddr, Registry: cfg.Registry})
		if err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "parsecbench: introspect: listening on %s\n", srv.Addr())
	}
	if *profile || *introspectAddr != "" {
		// Attribution costs one atomic load on already-slow conflict
		// paths, so the introspection server gets it for free — its
		// /debug/cv/conflicts endpoint is empty otherwise.
		stm.SetProfiling(true)
	}

	if *sweepList != "" {
		out := *benchOut
		if out == "" {
			host, _ := os.Hostname()
			out = bench.DefaultFilename(host, time.Now().UTC())
		}
		if err := runSweep(cfg, *sweepList, out, cfg.Progress); err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
		return
	}

	sw := harness.Run(cfg)
	meta := bench.Collect()
	sw.Meta = &meta

	if *tracePath != "" {
		cfg.Tracer.Disable()
		if err := writeTrace(cfg.Tracer, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "parsecbench: wrote trace (%d events) to %s\n",
			cfg.Tracer.Emitted(), *tracePath)
		// In-run causal-chain summary: reconstruct the wake DAGs straight
		// from the ring so a broken chain is caught at the source, then
		// point at the offline analyzer for the full critical-path report.
		dags := waketrace.Build(waketrace.FromObs(cfg.Tracer.Events()))
		hops, consumed, orphans := 0, 0, 0
		for _, d := range dags {
			hops += len(d.Hops)
			c, _ := d.Consumed()
			consumed += c
			orphans += len(d.Orphans)
		}
		fmt.Fprintf(os.Stderr, "parsecbench: wake chains: %d flow(s), %d hop(s), %d consumed, %d orphan(s)\n",
			len(dags), hops, consumed, orphans)
		if problems := waketrace.Check(dags); len(problems) != 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "parsecbench: wake-chain violation:", p)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "parsecbench: analyze: go run ./cmd/cvtrace %s\n", *tracePath)
	}
	if *resultDir != "" {
		path, err := writeResult(sw, *resultDir, *machine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "parsecbench: wrote results to %s\n", path)
	}

	switch {
	case *csv:
		sw.WriteCSV(os.Stdout)
	case *metrics:
		if err := sw.WriteMetricsJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
	case *summary:
		sw.WriteSpeedups(os.Stdout)
	default:
		fmt.Print(sw.Render(figure))
	}
}

// writeTrace exports the recorded events as a Chrome trace_event file
// (load it at chrome://tracing or https://ui.perfetto.dev).
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeResult saves the sweep's metrics JSON under dir as
// bench-<machine>-<timestamp>.json and returns the path.
func writeResult(sw *harness.Sweep, dir, machine string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("bench-%s-%s.json",
		machine, time.Now().UTC().Format("20060102T150405Z")))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := sw.WriteMetricsJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
