package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/stm"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		p           float64
		want        uint32
		wantBeyond  int
		description string
	}{
		{50, 50, 50, "median of 1..100"},
		{99, 99, 1, "p99 of 1..100"},
		{100, 100, 0, "maximum"},
		{0.5, 1, 99, "rank clamps to 1"},
	} {
		v, beyond := percentile(s, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("%s: percentile(%v) = %d, beyond %d; want %d, beyond %d",
				c.description, c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile([]uint32{7}, 99); v != 7 || beyond != 0 {
		t.Errorf("single sample: got %d beyond %d", v, beyond)
	}
	// Nearest rank picks a sample, never an interpolation.
	if v, _ := percentile([]uint32{10, 20, 30, 40}, 50); v != 20 {
		t.Errorf("p50 of 4 samples = %d, want 20", v)
	}
}

func TestSampleCountRule(t *testing.T) {
	// p99 has at least minBeyond samples beyond it from n = 1000 on.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false},
		{1000, 99, true},
		{100000, 99, true},
		{19, 50, false},
		{20, 50, true},
		{1, 50, false},
	} {
		_, beyond := percentile(make([]uint32, c.n), c.p)
		if got := beyond >= minBeyond; got != c.want {
			t.Errorf("n=%d p=%v: %d samples beyond, measured=%v; want %v", c.n, c.p, beyond, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func metricMap(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

func TestLayerArithmetic(t *testing.T) {
	before := layerSnap{
		Starts: 100, Commits: 90, Aborts: 10, EarlyCommits: 5,
		CommitCount: 90, CommitNanos: 9000, AbortNanos: 1000,
		Waits: 7, NotifyOnes: 3, NotifyAlls: 1, NotifyEmpty: 2, Woken: 6,
		WakeBatchCount: 1, WakeBatchSum: 3,
		NotifyToWakeCount: 4, NotifyToWakeNanos: 4000,
		SemPosts: 6, SemWaits: 6, SemBlocks: 1, SemSpinWaits: 5, ParkCount: 1, ParkNanos: 50000,
	}
	after := layerSnap{
		Starts: 1100, Commits: 890, Aborts: 210, EarlyCommits: 105,
		CommitCount: 890, CommitNanos: 809000, AbortNanos: 3001000,
		Waits: 107, NotifyOnes: 63, NotifyAlls: 21, NotifyEmpty: 22, Woken: 126,
		WakeBatchCount: 21, WakeBatchSum: 63,
		NotifyToWakeCount: 104, NotifyToWakeNanos: 504000,
		BroadcastCount: 20, BroadcastNanos: 200000,
		SemPosts: 106, SemWaits: 106, SemBlocks: 26, SemSpinWaits: 80, ParkCount: 26, ParkNanos: 2550000,
	}
	d := after.sub(before)
	if d.Starts != 1000 || d.Commits != 800 || d.Aborts != 200 || d.ParkNanos != 2500000 || d.BroadcastCount != 20 {
		t.Fatalf("sub: got %+v", d)
	}
	spans := map[string]spanTotal{"put": {Count: 4, Nanos: 10000}}
	got := metricMap(layerMetrics(d, 400, spans))
	want := map[string]float64{
		"facility.put_us":           2.5,
		"facility.get_us":           0, // no spans of that kind
		"stm.attempts":              1000,
		"stm.commits":               800,
		"stm.aborts":                200,
		"stm.commit_ratio":          0.8,
		"stm.early_commits":         100,
		"stm.commits_per_op":        2,
		"stm.commit_ns_mean":        1000,
		"stm.commit_ms":             0.8,
		"stm.abort_ms":              3,
		"core.waits":                100,
		"core.waits_per_op":         0.25,
		"core.notify_woke":          80,
		"core.notify_empty":         20,
		"core.notify_useful_ratio":  0.8,
		"core.woken":                120,
		"core.wake_batch_mean":      3,
		"core.enqueue_to_notify_us": 0, // nothing observed
		"core.notify_to_wake_us":    5,
		"core.broadcast_us":         10,
		"sem.posts":                 100,
		"sem.waits":                 100,
		"sem.blocks":                25,
		"sem.spin_waits":            75,
		"sem.park_ratio":            0.25,
		"sem.park_us":               100,
		"sem.park_ms":               2.5,
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if diff := g - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

func TestReadLayersCountsEngineWork(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := &core.CVStats{}
	v := stm.NewVar(e, 0)
	before := readLayers(e, cv)
	for i := 0; i < 5; i++ {
		e.MustAtomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}
	d := readLayers(e, cv).sub(before)
	if d.Commits != 5 || d.Starts < 5 || d.CommitCount != 5 || d.CommitNanos <= 0 {
		t.Errorf("after 5 transactions: %+v", d)
	}
	if nilCV := readLayers(e, nil); nilCV.Waits != 0 || nilCV.Commits == 0 {
		t.Errorf("nil CVStats: %+v", nilCV)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that no operation fails and that exactly the metrics BENCHMARK.json
// names are reported, each also printed by name.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.3",
					"--trace", trace, "--spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("failed_ratio not 0: %+v", res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if m.Unit == "" {
						t.Errorf("%s has no unit", name)
					}
				}
				sort.Strings(got)
				sorted := append([]string(nil), want...)
				sort.Strings(sorted)
				if strings.Join(got, ",") != strings.Join(sorted, ",") {
					t.Errorf("metrics %v, BENCHMARK.json names %v", got, sorted)
				}
				text := strings.Join(lines[:len(lines)-1], "\n")
				for _, name := range append(want, "failed_ratio") {
					if !strings.Contains(text, "\n"+name+" ") {
						t.Errorf("%s not printed by name", name)
					}
				}
			})
		}
	}
}

// TestLostWakeupEndsRun checks that an operation stuck past the deadline
// ends the run with exit code 1, the seed and an incorrect result. The
// run exits the process, so the test re-runs itself as a subprocess.
func TestLostWakeupEndsRun(t *testing.T) {
	if os.Getenv("PERFBENCH_HANG") == "1" {
		in := newInstance("hang", 42, false)
		in.toolkit(facility.Txn)
		in.spawn("hang.op", 0, func(d *driver) {
			for !d.ready.Load() {
				d.prepare(in)
				time.Sleep(time.Millisecond)
			}
			d.begin(nowNS())
			select {} // a wakeup that never comes
		})
		in.finish = func() []string { return nil }
		in.built()
		in.measure(10 * time.Second)
		t.Fatal("measure returned despite a stuck operation")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLostWakeupEndsRun$")
	cmd.Env = append(os.Environ(), "PERFBENCH_HANG=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if !strings.Contains(string(out), "FAILED hang seed=42: driver 0: operation in flight") {
		t.Errorf("the watchdog did not report the stuck operation with the seed:\n%s", out)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct || res.Failed < 1 {
		t.Errorf("last line %q: want an incorrect result with a failure (%v)", lines[len(lines)-1], err)
	}
}
