package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/obs"
)

func TestVerdict(t *testing.T) {
	if verdict(true) != "HOLDS" || verdict(false) != "VIOLATED" {
		t.Fatal("verdict strings changed")
	}
}

func TestRunSmoke(t *testing.T) {
	// Tiny end-to-end run exercising the full pipeline.
	err := run([]string{"-H", "2", "-C", "20", "-n0", "5", "-nc", "10",
		"-slots", "2000", "-eps", "1e-2", "-sched", "edf", "-ccdf"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sched", "nope"}); err == nil {
		t.Fatal("bad scheduler must error")
	}
	if err := run([]string{"-sched", "gps", "-pktsize", "2"}); err == nil {
		t.Fatal("pktsize with gps must error")
	}
}

func TestRunSketchMeasure(t *testing.T) {
	// The sketch backend must survive a horizon 10x the smoke test's and
	// still report quantiles plus its rank-error line; the pipeline is the
	// same end to end, only the summary representation changes.
	err := run([]string{"-H", "2", "-C", "20", "-n0", "5", "-nc", "10",
		"-slots", "20000", "-eps", "1e-2", "-measure", "sketch", "-reps", "2", "-ccdf"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-measure", "histogram"}); err == nil {
		t.Fatal("unknown measurement backend must error")
	}
}

func TestRunBackendSelection(t *testing.T) {
	// The sim backend skips the bound, the analytic backend skips the
	// simulation; both must still exit cleanly.
	for _, be := range []string{"sim", "analytic"} {
		if err := run([]string{"-backend", be, "-H", "2", "-C", "20",
			"-n0", "5", "-nc", "10", "-slots", "1000", "-eps", "1e-2"}); err != nil {
			t.Fatalf("backend %s: %v", be, err)
		}
	}
	if err := run([]string{"-backend", "quantum"}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

func TestRunFlagValidation(t *testing.T) {
	// Out-of-domain path inputs are bad configurations under every
	// backend, never an infeasible bound. So is a checkpoint: netsim runs
	// no analytic sweep it could record.
	for _, args := range [][]string{
		{"-C", "-5"},
		{"-C", "Inf"},
		{"-H", "0"},
		{"-backend", "sim", "-C", "-5"},
		{"-sched", "edf", "-edf-d0", "Inf"},
		{"-backend", "analytic", "-sched", "edf", "-edf-d0", "Inf"},
		{"-checkpoint", filepath.Join(t.TempDir(), "check.frag")},
		{"-probe-every", "-1"},
		{"-reps", "0"},
		{"-simworkers", "-1"},
	} {
		err := run(append(args, "-slots", "1000"))
		if !errors.Is(err, core.ErrBadConfig) || errors.Is(err, core.ErrInfeasible) {
			t.Errorf("%v: want core.ErrBadConfig, got %v", args, err)
		}
	}
}

func TestRunHelpIsErrHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h must surface flag.ErrHelp, got %v", err)
	}
}

func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "r.json")
	cpu := filepath.Join(dir, "cpu.prof")
	stderr := captureStderr(t, func() {
		err := run([]string{"-H", "2", "-C", "20", "-n0", "5", "-nc", "10",
			"-slots", "3000", "-eps", "1e-2", "-seed", "3",
			"-report", report, "-cpuprofile", cpu, "-progress"})
		if err != nil {
			t.Fatal(err)
		}
	})
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r obs.RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if r.Tool != "netsim" || r.Seed != 3 {
		t.Fatalf("report header wrong: tool=%q seed=%d", r.Tool, r.Seed)
	}
	if r.Config["slots"] != float64(3000) {
		t.Fatalf("config not captured: slots=%v", r.Config["slots"])
	}
	// The stages are exactly the root span's children: simulate (the
	// run) and analyze (the command's stage). Under -progress the run's
	// time is on its progress line; only analyze prints a stage line.
	names := map[string]bool{}
	for _, st := range r.Stages {
		names[st.Name] = true
	}
	if len(r.Stages) != 2 || !names["simulate"] || !names["analyze"] {
		t.Fatalf("stages = %+v, want exactly simulate and analyze", r.Stages)
	}
	if r.Spans == nil {
		t.Fatal("report has no span tree")
	}
	for _, st := range r.Stages {
		var child *obs.SpanNode
		for _, c := range r.Spans.Children {
			if c.Name == st.Name {
				child = c
			}
		}
		if child == nil || st != (obs.StageTiming{Name: child.Name, WallSeconds: child.WallSeconds, CPUSeconds: child.CPUSeconds}) {
			t.Errorf("stage %+v is not the root span child %+v", st, child)
		}
	}
	if strings.Contains(stderr, "stage simulate") || !strings.Contains(stderr, "netsim: stage analyze") {
		t.Errorf("want one stage line, for analyze only; stderr:\n%s", stderr)
	}
	if len(r.Nodes) != 2 {
		t.Fatalf("expected 2 node summaries, got %d", len(r.Nodes))
	}
	for _, n := range r.Nodes {
		if n.Samples == 0 || n.Utilization <= 0 {
			t.Fatalf("node summary empty: %+v", n)
		}
	}
	if _, ok := r.Bounds["delay_bound_slots"]; !ok {
		t.Fatalf("bounds missing: %v", r.Bounds)
	}
	if _, ok := r.Bounds["empirical_violation_fraction"]; !ok {
		t.Fatalf("combined-backend report must carry the empirical violation fraction: %v", r.Bounds)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	func() {
		// Restore and close even when fn fails the test.
		defer func() {
			os.Stderr = old
			w.Close()
		}()
		os.Stderr = w
		fn()
	}()
	return <-out
}
