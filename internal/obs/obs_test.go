package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}

	var g Gauge
	g.Set(2.5)
	if got := g.Load(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}

	// Nil receivers must be inert, not crash.
	var nc *Counter
	nc.Inc()
	nc.Add(3)
	if nc.Load() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var ng *Gauge
	ng.Set(1)
	if ng.Load() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

func TestReportStagesAndWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	s, err := Flags{Report: path}.Start("testtool")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Report
	if r.Version == "" {
		t.Fatal("report must carry a version string")
	}
	stop := s.Stage("compute")
	busyLoop(5 * time.Millisecond)
	stop()
	r.SetBound("delay_bound", 42.5)
	r.SetMetric("points", 9)
	r.SetExtra("note", "hello")
	r.Seed = 7

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Tool != "testtool" || back.Seed != 7 {
		t.Fatalf("round-trip lost fields: tool=%q seed=%d", back.Tool, back.Seed)
	}
	if len(back.Stages) != 1 || back.Stages[0].Name != "compute" {
		t.Fatalf("stages = %+v, want one 'compute' stage", back.Stages)
	}
	if back.Stages[0].WallSeconds <= 0 {
		t.Fatalf("stage wall time must be positive, got %g", back.Stages[0].WallSeconds)
	}
	if back.WallSeconds < back.Stages[0].WallSeconds {
		t.Fatalf("total wall %g < stage wall %g", back.WallSeconds, back.Stages[0].WallSeconds)
	}
	if back.Bounds["delay_bound"] != 42.5 || back.Metrics["points"] != 9 {
		t.Fatalf("bounds/metrics lost: bounds=%v metrics=%v", back.Bounds, back.Metrics)
	}
	// The stages and the totals are the span tree's: each stage is the
	// root span's child of the same name.
	if back.Spans == nil || back.WallSeconds != back.Spans.WallSeconds || back.CPUSeconds != back.Spans.CPUSeconds {
		t.Fatalf("totals (%g s wall, %g s CPU) are not the root span's: %+v", back.WallSeconds, back.CPUSeconds, back.Spans)
	}
	assertStagesAreRootChildren(t, &back)

	// Nil-safe surface.
	var nr *RunReport
	nr.SetBound("x", 1)
	nr.SetMetric("x", 1)
	nr.SetExtra("x", 1)
	nr.Finalize()
	if err := nr.WriteFile(path); err == nil {
		t.Fatal("nil report WriteFile must error")
	}
}

// assertStagesAreRootChildren checks that a report's stages are exactly
// the children of its root span, timing included.
func assertStagesAreRootChildren(t *testing.T, r *RunReport) {
	t.Helper()
	if r.Spans == nil || len(r.Stages) != len(r.Spans.Children) {
		t.Fatalf("stages %+v do not match the root span's children %+v", r.Stages, r.Spans)
	}
	for i, st := range r.Stages {
		c := r.Spans.Children[i]
		if st != (StageTiming{Name: c.Name, WallSeconds: c.WallSeconds, CPUSeconds: c.CPUSeconds}) {
			t.Errorf("stage %+v differs from root span child %+v", st, *c)
		}
	}
}

// TestSetMetricReachesRegistry: a one-off value is a registry gauge, so
// it shows in the report and on /metrics alike.
func TestSetMetricReachesRegistry(t *testing.T) {
	r := NewReport("t")
	r.SetMetric("obs_test_one_off", 4.5)
	r.Finalize()
	if got := r.Metrics["obs_test_one_off"]; got != 4.5 {
		t.Fatalf("report metric = %g, want 4.5", got)
	}
	var b bytes.Buffer
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nobs_test_one_off 4.5\n") {
		t.Fatalf("one-off value missing from the exposition:\n%s", b.String())
	}
}

// busyLoop burns CPU so stage wall (and on unix CPU) times are non-zero.
func busyLoop(d time.Duration) {
	end := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(end) {
		x = math.Sqrt(x + 1)
	}
	_ = x
}

func TestProcessCPUSeconds(t *testing.T) {
	before := processCPUSeconds()
	busyLoop(20 * time.Millisecond)
	after := processCPUSeconds()
	if after < before {
		t.Fatalf("CPU time went backwards: %g -> %g", before, after)
	}
}

func TestConfigFromFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	n := fs.Int("n", 3, "")
	fs.String("s", "default", "")
	if err := fs.Parse([]string{"-n", "5"}); err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFromFlags(fs)
	if cfg["n"] != 5 || *n != 5 {
		t.Fatalf("cfg[n] = %v (%T), want 5", cfg["n"], cfg["n"])
	}
	if cfg["s"] != "default" {
		t.Fatalf("cfg[s] = %v, want default value recorded", cfg["s"])
	}
	if ConfigFromFlags(nil) != nil {
		t.Fatal("nil FlagSet must give nil config")
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("sweep", &buf)
	p.minGap = 0 // print every observation in the test
	p.Observe(1, 4)
	p.Observe(2, 4)
	p.Observe(4, 4)
	p.Finish() // the final Observe already closed it; must not double-print
	out := buf.String()
	if !strings.Contains(out, "sweep: 1/4") || !strings.Contains(out, "eta") {
		t.Fatalf("first line must show count and eta, got:\n%s", out)
	}
	if !strings.Contains(out, "4/4 (100.0%)") {
		t.Fatalf("final line must show completion, got:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 3 {
		t.Fatalf("expected exactly 3 lines, got %d:\n%s", n, out)
	}

	var np *Progress
	np.Observe(1, 2) // nil must be inert
	np.Finish()
}

func TestProgressThrottle(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("fast", &buf)
	for i := 1; i <= 100; i++ {
		p.Observe(i, 200) // all within the min gap except the first
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("throttle failed: %d lines for 100 rapid observations", n)
	}
}

func TestSimProbeSummaries(t *testing.T) {
	p := &SimProbe{Every: 2}
	if p.Sample(1) || !p.Sample(2) {
		t.Fatal("Every=2 must sample even slots only")
	}
	// Node 0: two samples, half loaded; node 1: one sample, idle.
	p.ObserveNode(0, 0, 10, 20, 5, 3)
	p.ObserveNode(0, 2, 0, 20, 0, 0)
	p.ObserveNode(1, 0, 0, 20, 0, -1)
	s := p.Summaries()
	if len(s) != 2 {
		t.Fatalf("expected 2 node summaries, got %d", len(s))
	}
	n0 := s[0]
	if n0.Samples != 2 || n0.ServedBits != 10 {
		t.Fatalf("node 0 totals wrong: %+v", n0)
	}
	if math.Abs(n0.Utilization-0.25) > 1e-12 {
		t.Fatalf("node 0 utilization = %g, want 0.25", n0.Utilization)
	}
	if math.Abs(n0.BusyFraction-0.5) > 1e-12 || n0.MaxBacklog != 5 || n0.MeanBacklog != 2.5 {
		t.Fatalf("node 0 backlog stats wrong: %+v", n0)
	}
	if n0.MaxQueueLen != 3 || math.Abs(n0.MeanQueueLen-1.5) > 1e-12 {
		t.Fatalf("node 0 queue stats wrong: %+v", n0)
	}
	if s[1].MaxQueueLen != -1 || s[1].MeanQueueLen != -1 {
		t.Fatalf("node 1 without queue depth must report -1: %+v", s[1])
	}

	var np *SimProbe
	if np.Sample(0) {
		t.Fatal("nil probe must not sample")
	}
	np.ObserveNode(0, 0, 1, 1, 1, 1)
	if np.Summaries() != nil {
		t.Fatal("nil probe summaries must be nil")
	}
}

func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Report:     filepath.Join(dir, "r.json"),
		CPUProfile: filepath.Join(dir, "cpu.prof"),
		MemProfile: filepath.Join(dir, "mem.prof"),
		Trace:      filepath.Join(dir, "trace.out"),
	}
	s, err := f.Start("t")
	if err != nil {
		t.Fatal(err)
	}
	stop := s.Stage("work")
	busyLoop(5 * time.Millisecond)
	stop()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.Report, f.CPUProfile, f.MemProfile, f.Trace} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}

	// A bare session (no artifacts requested) must be a no-op.
	s2, err := Flags{}.Start("t2")
	if err != nil {
		t.Fatal(err)
	}
	if s2.NewProgress("x") != nil {
		t.Fatal("progress reporter must be nil without -progress")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	var ns *Session
	ns.Stage("x")()
	if ns.NewProgress("x") != nil || ns.Close() != nil {
		t.Fatal("nil session must be inert")
	}
}

func TestFlagsRegister(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-report", "a.json", "-progress", "-cpuprofile", "c.prof"}); err != nil {
		t.Fatal(err)
	}
	if f.Report != "a.json" || !f.Progress || f.CPUProfile != "c.prof" {
		t.Fatalf("flags not bound: %+v", f)
	}
}
