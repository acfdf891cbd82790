package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasched/cmd/internal/docargs"
)

// TestRunHelpIsErrHelp: -h surfaces flag.ErrHelp, alone and after
// every benchjson command line README.md and EXPERIMENTS.md show, which
// run reaches only once it accepted every documented flag.
func TestRunHelpIsErrHelp(t *testing.T) {
	for _, args := range append([][]string{nil}, docargs.Args(t, "benchjson")...) {
		if err := run(append(args, "-h")); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("benchjson %s -h: want flag.ErrHelp, got %v", strings.Join(args, " "), err)
		}
	}
}

const sampleOut = `goos: linux
goarch: amd64
pkg: deltasched
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkInnerMinimize          	  201354	      5936 ns/op	    1520 B/op	       8 allocs/op
BenchmarkSimulatorSlots-8       	     312	   4141458 ns/op	      2000 slots/op	 1249456 B/op	   23507 allocs/op
BenchmarkEffectiveBandwidth     	40131662	        31.21 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	deltasched	36.237s
pkg: deltasched/internal/randx
BenchmarkBinomialInversion      	 8043694	       147.6 ns/op	       0 B/op	       0 allocs/op
`

func TestParseBench(t *testing.T) {
	res, cpu := parseBench(sampleOut)
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	if len(res) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(res))
	}
	sim, ok := res["BenchmarkSimulatorSlots"] // -8 suffix stripped
	if !ok {
		t.Fatal("BenchmarkSimulatorSlots missing")
	}
	if sim.NsPerOp != 4141458 || sim.AllocsPerOp != 23507 || sim.BytesPerOp != 1249456 {
		t.Errorf("SimulatorSlots = %+v", sim)
	}
	if sim.Metrics["slots/op"] != 2000 {
		t.Errorf("slots/op = %v, want 2000", sim.Metrics["slots/op"])
	}
	if sim.Pkg != "deltasched" {
		t.Errorf("pkg = %q", sim.Pkg)
	}
	if inv := res["BenchmarkBinomialInversion"]; inv.Pkg != "deltasched/internal/randx" {
		t.Errorf("randx pkg = %q", inv.Pkg)
	}
	if eb := res["BenchmarkEffectiveBandwidth"]; eb.NsPerOp != 31.21 {
		t.Errorf("fractional ns/op = %v", eb.NsPerOp)
	}
}

func TestParseBenchCountKeepsFastestRun(t *testing.T) {
	const out = `pkg: deltasched
BenchmarkA   100   3000 ns/op   64 B/op   2 allocs/op
BenchmarkA   100   1000 ns/op   64 B/op   2 allocs/op
BenchmarkA   100   2000 ns/op   64 B/op   2 allocs/op
`
	res, _ := parseBench(out)
	if len(res) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(res))
	}
	if got := res["BenchmarkA"].NsPerOp; got != 1000 {
		t.Errorf("duplicate lines must keep the fastest run: got %v ns/op, want 1000", got)
	}
}

// writeBenchFile materializes a benchjson File with the given after-side
// (name → ns/op, allocs/op) pairs.
func writeBenchFile(t *testing.T, path string, after map[string][2]float64) {
	t.Helper()
	f := &File{Schema: "deltasched-bench/v1", Benchmarks: map[string]*Entry{}}
	for name, v := range after {
		f.Benchmarks[name] = &Entry{After: &Measurement{Iterations: 1, NsPerOp: v[0], AllocsPerOp: v[1]}}
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, map[string][2]float64{
		"BenchmarkA":    {1000, 4},
		"BenchmarkB":    {2000, 0},
		"BenchmarkGone": {50, 0},
	})

	t.Run("within threshold passes", func(t *testing.T) {
		writeBenchFile(t, newPath, map[string][2]float64{
			"BenchmarkA":   {1100, 4}, // +10% ns/op
			"BenchmarkB":   {1900, 0},
			"BenchmarkNew": {1, 99}, // new benchmarks never fail the gate
		})
		if err := runDiff(oldPath, newPath, "", 15); err != nil {
			t.Errorf("diff within threshold failed: %v", err)
		}
	})
	t.Run("ns regression fails", func(t *testing.T) {
		writeBenchFile(t, newPath, map[string][2]float64{
			"BenchmarkA": {1200, 4}, // +20% ns/op
			"BenchmarkB": {2000, 0},
		})
		if err := runDiff(oldPath, newPath, "", 15); err == nil {
			t.Error("+20%% ns/op must fail a 15%% gate")
		}
		if err := runDiff(oldPath, newPath, "", 25); err != nil {
			t.Errorf("+20%% ns/op must pass a 25%% gate: %v", err)
		}
	})
	t.Run("alloc regression fails", func(t *testing.T) {
		writeBenchFile(t, newPath, map[string][2]float64{
			"BenchmarkA": {1000, 5}, // +25% allocs/op
			"BenchmarkB": {2000, 0},
		})
		if err := runDiff(oldPath, newPath, "", 15); err == nil {
			t.Error("+25%% allocs/op must fail a 15%% gate")
		}
	})
	t.Run("cross-cpu ns delta warns, allocs still gate", func(t *testing.T) {
		writeCPU := func(path, cpu string, ns, allocs float64) {
			f := &File{Schema: "deltasched-bench/v1", CPU: cpu, Benchmarks: map[string]*Entry{
				"BenchmarkA": {After: &Measurement{Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs}},
			}}
			buf, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeCPU(oldPath, "cpuA", 1000, 4)
		writeCPU(newPath, "cpuB", 2000, 4) // +100% ns/op on different hardware
		if err := runDiff(oldPath, newPath, "", 15); err != nil {
			t.Errorf("cross-CPU ns delta must not fail the gate: %v", err)
		}
		writeCPU(newPath, "cpuB", 2000, 6) // +50% allocs/op is machine-independent
		if err := runDiff(oldPath, newPath, "", 15); err == nil {
			t.Error("alloc regression must fail even across CPUs")
		}
		// Restore the shared old file for later subtests.
		writeBenchFile(t, oldPath, map[string][2]float64{
			"BenchmarkA":    {1000, 4},
			"BenchmarkB":    {2000, 0},
			"BenchmarkGone": {50, 0},
		})
	})
	t.Run("calibrated baseline absorbs environment drift", func(t *testing.T) {
		calPath := filepath.Join(dir, "cal.json")
		writeBenchFile(t, newPath, map[string][2]float64{
			"BenchmarkA": {1400, 4}, // +40% vs old — would fail uncalibrated
			"BenchmarkB": {2900, 0}, // +45%, but NOT covered by the calibration
		})
		if err := runDiff(oldPath, newPath, "", 15); err == nil {
			t.Error("+40%% ns/op must fail without calibration")
		}
		// The old code re-run today is just as slow on A: machine drift.
		writeBenchFile(t, calPath, map[string][2]float64{"BenchmarkA": {1450, 4}})
		if err := runDiff(oldPath, newPath, calPath, 15); err == nil {
			t.Error("uncalibrated BenchmarkB must still gate against the old file")
		}
		writeBenchFile(t, calPath, map[string][2]float64{
			"BenchmarkA": {1450, 4},
			"BenchmarkB": {2800, 0},
		})
		if err := runDiff(oldPath, newPath, calPath, 15); err != nil {
			t.Errorf("same-environment re-run of the old code must absorb the drift: %v", err)
		}
		// A calibration slower than the new run never hides a real win,
		// and a genuine regression past the calibrated baseline still fails.
		writeBenchFile(t, newPath, map[string][2]float64{
			"BenchmarkA": {1800, 4}, // +24% over the calibrated 1450
			"BenchmarkB": {2000, 0},
		})
		if err := runDiff(oldPath, newPath, calPath, 15); err == nil {
			t.Error("regression past the calibrated baseline must still fail")
		}
	})
	t.Run("calibration from another environment is rejected", func(t *testing.T) {
		writeEnv := func(path, cpu string, ns float64) {
			f := &File{Schema: "deltasched-bench/v1", CPU: cpu, Benchmarks: map[string]*Entry{
				"BenchmarkA": {After: &Measurement{Iterations: 1, NsPerOp: ns, AllocsPerOp: 4}},
			}}
			buf, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		calPath := filepath.Join(dir, "calenv.json")
		writeEnv(oldPath, "cpuA", 1000)
		writeEnv(newPath, "cpuA", 1400)
		writeEnv(calPath, "cpuZ", 1450)
		if err := runDiff(oldPath, newPath, calPath, 15); err == nil {
			t.Error("calibration recorded on a different CPU must be rejected")
		}
		// Restore the shared old file for later subtests.
		writeBenchFile(t, oldPath, map[string][2]float64{
			"BenchmarkA":    {1000, 4},
			"BenchmarkB":    {2000, 0},
			"BenchmarkGone": {50, 0},
		})
	})
	t.Run("alloc-free path starting to allocate fails any threshold", func(t *testing.T) {
		writeBenchFile(t, newPath, map[string][2]float64{
			"BenchmarkA": {1000, 4},
			"BenchmarkB": {2000, 1}, // 0 → 1 allocs/op
		})
		if err := runDiff(oldPath, newPath, "", 1e9); err == nil {
			t.Error("0 → 1 allocs/op must fail regardless of threshold")
		}
	})
}

func TestRunDiffFlagsAfterPositionals(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, map[string][2]float64{"BenchmarkA": {1000, 0}})
	writeBenchFile(t, newPath, map[string][2]float64{"BenchmarkA": {1200, 0}})
	// -threshold after the positional files must still be honoured.
	if err := run([]string{"-diff", oldPath, newPath, "-threshold", "25"}); err != nil {
		t.Errorf("trailing -threshold 25 not honoured: %v", err)
	}
	if err := run([]string{"-diff", oldPath, newPath, "-threshold", "15"}); err == nil {
		t.Error("trailing -threshold 15 must fail on a +20%% regression")
	}
	if err := run([]string{"-diff", oldPath}); err == nil {
		t.Error("-diff with one file must error")
	}
}

func TestLoadBaselineText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "before.txt")
	if err := os.WriteFile(path, []byte(sampleOut), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("loaded %d baselines, want 4", len(m))
	}
	if _, err := loadBaseline(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file must error")
	}
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("no benchmarks here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(empty); err == nil {
		t.Error("benchless file must error")
	}
}
