package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"deltasched/internal/obs"
)

// TestGoldenCSVs pins the -quick CSV artifacts byte for byte against
// goldens captured before the scenario/runner refactor. The second half
// replays figure 1 entirely from a checkpoint: a resumed run must ship
// the identical file.
func TestGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("full -quick sweeps")
	}
	dir := t.TempDir()
	for _, fig := range []string{"1", "2", "3"} {
		t.Run("fig"+fig, func(t *testing.T) {
			out := filepath.Join(dir, "fig"+fig)
			quietRun(t, []string{"-quick", "-fig", fig, "-outdir", out})
			assertGoldenCSV(t, filepath.Join(out, "fig"+fig+".csv"))
		})
	}

	t.Run("fig1-traced", func(t *testing.T) {
		// Telemetry is observation, never behaviour: with -tracefile the
		// CSV must stay byte-identical, and the emitted Chrome trace must
		// be valid JSON whose spans reach the optimizer's inner loop.
		out := filepath.Join(dir, "traced")
		trace := filepath.Join(dir, "trace.json")
		quietRun(t, []string{"-quick", "-fig", "1", "-outdir", out, "-tracefile", trace})
		assertGoldenCSV(t, filepath.Join(out, "fig1.csv"))

		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("trace file is not valid JSON: %v", err)
		}
		seen := map[string]bool{}
		for _, ev := range tf.TraceEvents {
			seen[ev.Name] = true
		}
		for _, want := range []string{"point", "OptimizeAlpha", "DelayBound", "innerMinimize"} {
			if !seen[want] {
				t.Errorf("trace has no %q span (got %d events)", want, len(tf.TraceEvents))
			}
		}
	})

	t.Run("fig1-resumed", func(t *testing.T) {
		check := filepath.Join(dir, "check.json")
		first := filepath.Join(dir, "first")
		quietRun(t, []string{"-quick", "-fig", "1", "-outdir", first, "-checkpoint", check})
		resumed := filepath.Join(dir, "resumed")
		quietRun(t, []string{"-quick", "-fig", "1", "-outdir", resumed, "-checkpoint", check, "-resume"})
		assertGoldenCSV(t, filepath.Join(resumed, "fig1.csv"))
	})
}

// quietRun executes run with stdout swallowed: the goldens under test
// are the CSV artifacts, not the tables and charts.
// TestCoreCountsIndependentOfGOMAXPROCS: a traced -quick run of figure 2
// reports the same optimizer counts (every core_* counter) at GOMAXPROCS
// 1 and 2. No search reads state an earlier one left on a pooled
// Scratch, so the counts cannot depend on which Scratch a solve draws
// or on how the points spread over workers.
func TestCoreCountsIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("two -quick sweeps")
	}
	dir := t.TempDir()
	counts := func(procs int) map[string]float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		before, _ := obs.Default.Snapshot()
		report := filepath.Join(dir, fmt.Sprintf("report%d.json", procs))
		quietRun(t, []string{"-quick", "-fig", "2", "-outdir", dir, "-report", report})
		raw, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var r struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		run := map[string]float64{}
		for k, v := range r.Metrics {
			if strings.HasPrefix(k, "core_") {
				run[k] = v - before[k] // the registry counts the whole process
			}
		}
		return run
	}
	one, two := counts(1), counts(2)
	for _, k := range []string{"core_path_pricer_builds_total", "core_sigma_reuses_total", "core_edf_bisections_total"} {
		if one[k] <= 0 {
			t.Errorf("%s = %g at GOMAXPROCS 1, want > 0", k, one[k])
		}
	}
	if !reflect.DeepEqual(one, two) {
		t.Errorf("core_* counts differ with GOMAXPROCS:\n 1: %v\n 2: %v", one, two)
	}
}

func quietRun(t *testing.T, args []string) {
	t.Helper()
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func assertGoldenCSV(t *testing.T, path string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", filepath.Base(path)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the pre-refactor golden\ngot:\n%s\nwant:\n%s", filepath.Base(path), got, want)
	}
}
