package runner

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"deltasched/internal/obs"
	"deltasched/internal/scenario"
)

// runApp runs one App.Main invocation of the test sweep with the given
// flags, returning the results (nil for fragment-only runs) and the
// Main error.
func runApp(t *testing.T, flags []string) ([]scenario.Result, error) {
	t.Helper()
	sc, err := scenario.Get("test-sweep")
	if err != nil {
		t.Fatal(err)
	}
	var rs []scenario.Result
	app := New("ttool", scenario.Analytic)
	mainErr := app.Main(flags, func(a *App) error {
		_, got, err := a.Run(sc, nil, RunOpt{})
		rs = got
		return err
	})
	return rs, mainErr
}

// TestAppShardedSweepMatchesPlainRun is the runner-level identity
// check: evaluate every shard in its own App, merge in a fourth, and
// the results must equal (bit for bit, NaN included) a plain run.
func TestAppShardedSweepMatchesPlainRun(t *testing.T) {
	want, err := runApp(t, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, spec := range []string{"0/3", "1/3", "2/3"} {
		rs, err := runApp(t, []string{"-shard", spec, "-shard-dir", dir})
		if err != nil {
			t.Fatalf("shard %s: %v", spec, err)
		}
		if rs != nil {
			t.Fatalf("shard %s returned results; fixed-shard runs are fragment-only", spec)
		}
	}
	got, err := runApp(t, []string{"-merge", "-shard-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Analytic) != math.Float64bits(want[i].Analytic) &&
			!(math.IsNaN(got[i].Analytic) && math.IsNaN(want[i].Analytic)) {
			t.Fatalf("point %d: sharded %g, plain %g", i, got[i].Analytic, want[i].Analytic)
		}
	}
}

// TestAppClaimModeCompletesSweep: a single claim worker over a 2-way
// split returns the full, correct result set itself.
func TestAppClaimModeCompletesSweep(t *testing.T) {
	rs, err := runApp(t, []string{"-claim", "2", "-shard-dir", t.TempDir(), "-lease-ttl", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Analytic != 2 || !math.IsNaN(rs[1].Analytic) || rs[2].Analytic != 6 {
		t.Fatalf("claim run results wrong: %+v", rs)
	}
}

// TestAppMergeDetectsIncompleteSweep: merging before every shard ran
// must fail loudly, not emit a partial figure.
func TestAppMergeDetectsIncompleteSweep(t *testing.T) {
	dir := t.TempDir()
	if _, err := runApp(t, []string{"-shard", "0/2", "-shard-dir", dir}); err != nil {
		t.Fatal(err)
	}
	_, err := runApp(t, []string{"-merge", "-shard-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete merge must name missing shards, got %v", err)
	}
}

// TestAppMergeCountsFragmentsPerSweep: a merge records its fragment
// count once, in the registry counter labeled by sweep.
func TestAppMergeCountsFragmentsPerSweep(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{"0/2", "1/2"} {
		if _, err := runApp(t, []string{"-shard", spec, "-shard-dir", dir}); err != nil {
			t.Fatal(err)
		}
	}
	const key = `shard_fragments_merged_total{sweep="test-sweep"}`
	before := obs.Default.Counter("shard_fragments_merged_total", "", obs.Labels{"sweep": "test-sweep"}).Load()
	report := filepath.Join(t.TempDir(), "r.json")
	if _, err := runApp(t, []string{"-merge", "-shard-dir", dir, "-report", report}); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, report)
	if got := r.Metrics[key] - float64(before); got != 2 {
		t.Fatalf("%s grew by %g in the merge, want 2", key, got)
	}
	for name := range r.Metrics {
		if strings.HasSuffix(name, "_fragments_merged") {
			t.Errorf("report carries the second fragment count %q", name)
		}
	}
}

func TestAppShardFlagValidation(t *testing.T) {
	for name, flags := range map[string][]string{
		"modes-exclusive":     {"-shard", "0/2", "-merge", "-shard-dir", "d"},
		"claim-and-shard":     {"-shard", "0/2", "-claim", "2", "-shard-dir", "d"},
		"needs-dir":           {"-shard", "0/2"},
		"bad-spec":            {"-shard", "5/2", "-shard-dir", "d"},
		"checkpoint-conflict": {"-claim", "2", "-shard-dir", "d", "-checkpoint", "c.json"},
		"bad-faults":          {"-faults", "nonsense@x"},
	} {
		t.Run(name, func(t *testing.T) {
			app := New("ttool", scenario.Analytic)
			if err := app.Main(flags, func(a *App) error { return nil }); err == nil {
				t.Fatalf("flags %v accepted", flags)
			}
		})
	}
}

// TestAppPointRetriesSurviveInjectedPanic: the plain (unsharded) path
// also rides the retry policy — a point that panics once completes on
// the retry, driven end to end through the -faults flag.
func TestAppPointRetriesSurviveInjectedPanic(t *testing.T) {
	// panic@1 keys on the universe index inside shard mode; on the plain
	// path the injector is not consulted, so drive a sharded single-shard
	// run — the closest analogue that still exercises Run's flag wiring.
	rs, err := runApp(t, []string{
		"-claim", "1", "-shard-dir", t.TempDir(),
		"-faults", "panic@0", "-point-retries", "2", "-retry-base", "1ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Analytic != 2 {
		t.Fatalf("retried sweep wrong: %+v", rs)
	}
}

// TestAppFragmentOnly pins the CLI gate: fixed-shard mode reports
// fragment-only so commands skip rendering.
func TestAppFragmentOnly(t *testing.T) {
	app := New("ttool", scenario.Analytic)
	err := app.Main([]string{"-shard", "1/2", "-shard-dir", t.TempDir()}, func(a *App) error {
		if !a.FragmentOnly() {
			t.Error("fixed-shard run not marked fragment-only")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	app = New("ttool", scenario.Analytic)
	err = app.Main(nil, func(a *App) error {
		if a.FragmentOnly() {
			t.Error("plain run marked fragment-only")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
