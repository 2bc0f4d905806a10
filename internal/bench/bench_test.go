package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func validDoc() *Doc {
	return &Doc{
		Schema: Schema,
		Meta: RunMeta{
			Host: "testhost", GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 1, GOMAXPROCS: 1, CreatedAt: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
		},
		Points: []Point{
			{
				Benchmark: "dedup", System: "tm-cv", Procs: 2, Threads: 2,
				ThroughputOpsS: 100, MeanNS: 10_000_000, AbortRate: 0.05,
				Commits: 1000, Aborts: 50,
				ParkP50NS: 1000, ParkP99NS: 8000, BroadcastP50NS: 500, BroadcastP99NS: 4000,
			},
			{
				Benchmark: "x264", System: "tm-cv", Procs: 2, Threads: 2,
				ThroughputOpsS: 50, MeanNS: 20_000_000, AbortRate: 0.01,
				Commits: 500, Aborts: 5,
			},
		},
	}
}

func TestValidateAcceptsAndRoundTrips(t *testing.T) {
	d := validDoc()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := d.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(back.Points) != 2 || back.Meta.Host != "testhost" || back.Schema != Schema {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

// Documents written before a meta field was retired still load: v1
// files may carry serial_wake, sem_lanes and wake_fanout, which RunMeta
// no longer has.
func TestLoadIgnoresRetiredMetaFields(t *testing.T) {
	d := validDoc()
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	if err := d.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"meta": {`, `"meta": {
    "serial_wake": true,
    "sem_lanes": 4,
    "wake_fanout": 8,`, 1)
	if old == string(data) {
		t.Fatal("meta object not found in written document")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load of a document with retired fields: %v", err)
	}
	if back.Meta.Host != "testhost" || len(back.Points) != 2 {
		t.Fatalf("retired fields disturbed the decode: %+v", back.Meta)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Doc){
		"wrong schema":    func(d *Doc) { d.Schema = "cv-bench-trajectory/v0" },
		"no points":       func(d *Doc) { d.Points = nil },
		"no go version":   func(d *Doc) { d.Meta.GoVersion = "" },
		"zero created_at": func(d *Doc) { d.Meta.CreatedAt = time.Time{} },
		"bad procs":       func(d *Doc) { d.Points[0].Procs = 0 },
		"bad abort rate":  func(d *Doc) { d.Points[0].AbortRate = 1.5 },
		"zero timing":     func(d *Doc) { d.Points[0].MeanNS = 0 },
		"duplicate point": func(d *Doc) { d.Points[1] = d.Points[0] },
	}
	for name, mutate := range cases {
		d := validDoc()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the document", name)
		}
	}
}

// TestCompareFlagsInjectedSlowdown is the acceptance scenario: a copy
// of the document with one metric made worse beyond the threshold must
// produce a regression naming that point and metric.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	oldDoc, newDoc := validDoc(), validDoc()
	// Inject a 2x throughput collapse on dedup (mean doubles).
	newDoc.Points[0].ThroughputOpsS = 50
	newDoc.Points[0].MeanNS = 20_000_000

	r := Compare(oldDoc, newDoc, 0.25)
	if len(r.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want exactly 1", r.Regressions)
	}
	reg := r.Regressions[0]
	if reg.Key != "dedup/tm-cv/p2" || reg.Metric != "throughput_ops_s" {
		t.Fatalf("regression names %s/%s, want dedup/tm-cv/p2 throughput_ops_s", reg.Key, reg.Metric)
	}
	var b strings.Builder
	r.WriteTable(&b)
	if !strings.Contains(b.String(), "REGRESSED") {
		t.Fatalf("delta table does not mark the regression:\n%s", b.String())
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	oldDoc, newDoc := validDoc(), validDoc()
	// 10% slower: inside the 25% tolerance.
	newDoc.Points[0].ThroughputOpsS = 90
	newDoc.Points[0].ParkP99NS = 8600
	if r := Compare(oldDoc, newDoc, 0.25); len(r.Regressions) != 0 {
		t.Fatalf("noise flagged as regression: %+v", r.Regressions)
	}
}

func TestCompareDirectionality(t *testing.T) {
	oldDoc, newDoc := validDoc(), validDoc()
	// Abort rate up 4x and park p99 up 2x: both lower-better, both regress.
	newDoc.Points[0].AbortRate = 0.2
	newDoc.Points[0].ParkP99NS = 16000
	// Throughput UP 2x: higher-better improvement, must not regress.
	newDoc.Points[1].ThroughputOpsS = 100
	newDoc.Points[1].MeanNS = 10_000_001 // keep the key distinct from points[0]

	r := Compare(oldDoc, newDoc, 0.25)
	got := map[string]bool{}
	for _, reg := range r.Regressions {
		got[reg.Metric] = true
	}
	if !got["abort_rate"] || !got["park_p99_ns"] || got["throughput_ops_s"] {
		t.Fatalf("regressions = %+v, want abort_rate and park_p99_ns only", r.Regressions)
	}
}

// TestCompareMatrixDrift: points present in only one document are
// reported but never gate.
func TestCompareMatrixDrift(t *testing.T) {
	oldDoc, newDoc := validDoc(), validDoc()
	newDoc.Points = newDoc.Points[:1]
	newDoc.Points = append(newDoc.Points, Point{
		Benchmark: "ferret", System: "tm-cv", Procs: 2, Threads: 2,
		ThroughputOpsS: 10, MeanNS: 100_000_000,
	})
	r := Compare(oldDoc, newDoc, 0.25)
	if len(r.Regressions) != 0 {
		t.Fatalf("matrix drift treated as regression: %+v", r.Regressions)
	}
	if len(r.OnlyOld) != 1 || r.OnlyOld[0] != "x264/tm-cv/p2" {
		t.Fatalf("OnlyOld = %v", r.OnlyOld)
	}
	if len(r.OnlyNew) != 1 || r.OnlyNew[0] != "ferret/tm-cv/p2" {
		t.Fatalf("OnlyNew = %v", r.OnlyNew)
	}
}

func TestCollectFillsEnvironment(t *testing.T) {
	m := Collect()
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.NumCPU <= 0 || m.CreatedAt.IsZero() {
		t.Fatalf("Collect left required fields empty: %+v", m)
	}
}

func TestDefaultFilenameSanitizes(t *testing.T) {
	ts := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if got := DefaultFilename("my host/1", ts); got != "BENCH_my_host_1_2026-08-08.json" {
		t.Fatalf("DefaultFilename = %q", got)
	}
	if got := DefaultFilename("", ts); got != "BENCH_unknown_2026-08-08.json" {
		t.Fatalf("DefaultFilename(empty) = %q", got)
	}
}
