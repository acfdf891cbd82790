package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/obs"
	"deltasched/internal/scenario"
)

// testEvals counts Evaluate calls of the registered test sweep, so the
// resume test can prove checkpointed points are served, not recomputed.
var testEvals atomic.Int32

type testSweep struct{}

func (testSweep) Info() scenario.Info {
	return scenario.Info{Name: "test-sweep", Desc: "runner test fixture", Backends: scenario.Analytic, Sweep: true}
}

func (testSweep) Points(scenario.Config) ([]scenario.Point, error) {
	return []scenario.Point{
		{ID: "t/1", X: 1, Series: "s"},
		{ID: "t/2", X: 2, Series: "s"},
		{ID: "t/3", X: 3, Series: "s"},
	}, nil
}

func (testSweep) Evaluate(_ context.Context, _ scenario.Config, pt scenario.Point, _ scenario.Backend) (scenario.Result, error) {
	testEvals.Add(1)
	if pt.ID == "t/2" {
		return scenario.Result{}, fmt.Errorf("saturated: %w", core.ErrInfeasible)
	}
	return scenario.Result{Analytic: pt.X * 2}, nil
}

// stuckSweep is a one-point sweep whose evaluation ignores its context
// and outlives any point deadline.
type stuckSweep struct{}

func (stuckSweep) Info() scenario.Info {
	return scenario.Info{Name: "test-stuck", Desc: "runner test fixture", Backends: scenario.Analytic, Sweep: true}
}

func (stuckSweep) Points(scenario.Config) ([]scenario.Point, error) {
	return []scenario.Point{{ID: "stuck/1", X: 1, Series: "s"}}, nil
}

func (stuckSweep) Evaluate(context.Context, scenario.Config, scenario.Point, scenario.Backend) (scenario.Result, error) {
	time.Sleep(3 * time.Second)
	return scenario.Result{Analytic: 1}, nil
}

func init() {
	scenario.Register(testSweep{})
	scenario.Register(stuckSweep{})
}

func TestAppRunSweepCheckpointResume(t *testing.T) {
	testEvals.Store(0) // repeatable under -count
	cp := filepath.Join(t.TempDir(), "check.frag")
	sc, err := scenario.Get("test-sweep")
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func(extra ...string) []scenario.Result {
		t.Helper()
		var rs []scenario.Result
		app := New("ttool", scenario.Analytic)
		err := app.Main(append([]string{"-checkpoint", cp}, extra...), func(a *App) error {
			_, got, err := a.Run(sc, nil, RunOpt{})
			rs = got
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	rs := runOnce()
	if n := testEvals.Load(); n != 3 {
		t.Fatalf("first run evaluated %d points, want 3", n)
	}
	if rs[0].Analytic != 2 || rs[2].Analytic != 6 {
		t.Fatalf("wrong sweep values: %+v", rs)
	}
	if !math.IsNaN(rs[1].Analytic) {
		t.Fatalf("infeasible sweep point must become NaN, got %g", rs[1].Analytic)
	}

	// Resume: every point is served from the checkpoint — including the
	// NaN — with zero recomputation.
	rs2 := runOnce("-resume")
	if n := testEvals.Load(); n != 3 {
		t.Fatalf("resume recomputed points: %d evaluations total, want 3", n)
	}
	if rs2[0].Analytic != 2 || rs2[2].Analytic != 6 || !math.IsNaN(rs2[1].Analytic) {
		t.Fatalf("resumed values differ: %+v", rs2)
	}
}

// TestAppPointTimeoutBoundsStuckPoint: -point-timeout fails a point
// that ignores its context at the deadline, whether or not
// -point-retries gives it further attempts.
func TestAppPointTimeoutBoundsStuckPoint(t *testing.T) {
	sc, err := scenario.Get("test-stuck")
	if err != nil {
		t.Fatal(err)
	}
	for _, retries := range []string{"0", "1"} {
		start := time.Now()
		app := New("ttool", scenario.Analytic)
		err := app.Main([]string{"-point-timeout", "50ms", "-point-retries", retries, "-retry-base", "0"}, func(a *App) error {
			_, _, err := a.Run(sc, nil, RunOpt{})
			return err
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("-point-retries %s: got %v, want DeadlineExceeded", retries, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("-point-retries %s: stuck point held the run for %v", retries, elapsed)
		}
	}
}

// readReport loads a JSON run report.
func readReport(t *testing.T, path string) *obs.RunReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := new(obs.RunReport)
	if err := json.Unmarshal(data, r); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return r
}

// TestAppRunIsOneSpan: a run is timed once, by one span named after its
// stage, and that span is the report's stage.
func TestAppRunIsOneSpan(t *testing.T) {
	sc, err := scenario.Get("test-sweep")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	app := New("ttool", scenario.Analytic)
	if err := app.Main([]string{"-report", path}, func(a *App) error {
		_, _, err := a.Run(sc, nil, RunOpt{Stage: "sweep-stage"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, path)
	if r.Spans == nil || len(r.Spans.Children) != 1 {
		t.Fatalf("want one run span under the root, got %+v", r.Spans)
	}
	run := r.Spans.Children[0]
	if run.Name != "sweep-stage" || run.Count != 1 {
		t.Fatalf("run span = %+v, want one span named sweep-stage", run)
	}
	want := obs.StageTiming{Name: run.Name, WallSeconds: run.WallSeconds, CPUSeconds: run.CPUSeconds}
	if len(r.Stages) != 1 || r.Stages[0] != want {
		t.Fatalf("stages = %+v, want exactly the run span %+v", r.Stages, want)
	}
	if r.WallSeconds != r.Spans.WallSeconds {
		t.Fatalf("wall_seconds %g is not the root span's %g", r.WallSeconds, r.Spans.WallSeconds)
	}
}

func TestAppRejectsUnsupportedBackend(t *testing.T) {
	sc, err := scenario.Get("test-sweep")
	if err != nil {
		t.Fatal(err)
	}
	app := New("ttool", scenario.Analytic)
	err = app.Main([]string{"-backend", "sim"}, func(a *App) error {
		_, _, err := a.Run(sc, nil, RunOpt{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "runs on backend") {
		t.Fatalf("unsupported backend must be rejected, got %v", err)
	}
}

func TestAppResumeRequiresCheckpoint(t *testing.T) {
	app := New("ttool", scenario.Analytic)
	err := app.Main([]string{"-resume"}, func(a *App) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "-resume requires -checkpoint") {
		t.Fatalf("-resume alone must error, got %v", err)
	}
}

func TestAppScenariosFlag(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	app := New("ttool", scenario.Analytic)
	called := false
	mainErr := app.Main([]string{"-scenarios"}, func(a *App) error {
		called = true
		return nil
	})
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if mainErr != nil {
		t.Fatal(mainErr)
	}
	if called {
		t.Fatal("-scenarios must print the catalog without running the body")
	}
	out := buf.String()
	for _, want := range []string{
		"fig1", "tandem", "path", "heteropath", "scaling",
		"(backends: both)", "(backends: analytic)",
		"slots", "default",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("catalog missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeClassifiesErrors(t *testing.T) {
	if got := Describe("tool", fmt.Errorf("x: %w", core.ErrInfeasible)); !strings.Contains(got, "tool: infeasible scenario:") {
		t.Fatalf("infeasible not classified: %q", got)
	}
	if got := Describe("tool", fmt.Errorf("x: %w", core.ErrBadConfig)); !strings.Contains(got, "tool: bad scenario:") {
		t.Fatalf("bad config not classified: %q", got)
	}
	if got := Describe("tool", fmt.Errorf("boom")); got != "tool: boom" {
		t.Fatalf("plain error format changed: %q", got)
	}
}
