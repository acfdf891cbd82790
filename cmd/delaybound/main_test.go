package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deltasched/cmd/internal/docargs"
	"deltasched/internal/core"
	"deltasched/internal/experiments"
)

// TestRunHelpIsErrHelp: -h surfaces flag.ErrHelp, alone and after
// every delaybound command line README.md and EXPERIMENTS.md show, which
// run reaches only once it accepted every documented flag.
func TestRunHelpIsErrHelp(t *testing.T) {
	for _, args := range append([][]string{nil}, docargs.Args(t, "delaybound")...) {
		if err := run(append(args, "-h")); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("delaybound %s -h: want flag.ErrHelp, got %v", strings.Join(args, " "), err)
		}
	}
}

func TestCompact(t *testing.T) {
	short := compact([]float64{1, 2, 3})
	if !strings.Contains(short, "1") || !strings.Contains(short, "3") {
		t.Fatalf("compact short form %q", short)
	}
	long := compact(make([]float64, 20))
	if !strings.Contains(long, "H=20") {
		t.Fatalf("compact long form should summarize: %q", long)
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		bad  bool // want core.ErrBadConfig, not just an error
	}{
		{"edf without deadlines", []string{"-sched", "edf"}, true},
		// A non-finite deadline would price another scheduler's bound
		// (d0 = Inf is BMUX's, dc = Inf SP's) or fail as infeasible.
		{"infinite edf through deadline", []string{"-sched", "edf", "-edf-d0", "Inf", "-edf-dc", "5"}, true},
		{"infinite edf cross deadline", []string{"-sched", "edf", "-edf-d0", "5", "-edf-dc", "Inf"}, true},
		{"NaN edf through deadline", []string{"-sched", "edf", "-edf-d0", "NaN", "-edf-dc", "5"}, true},
		// A scheduler parameter the scheduler ignores is still checked.
		{"NaN edf deadline under fifo", []string{"-H", "3", "-edf-d0", "NaN"}, true},
		{"infinite edf deadline under bmux", []string{"-H", "3", "-sched", "bmux", "-edf-dc", "Inf"}, true},
		{"negative edf deadline under sp", []string{"-H", "3", "-sched", "sp", "-edf-d0", "-1"}, true},
		{"unknown scheduler", []string{"-sched", "unknown"}, true},
		{"invalid source", []string{"-p11", "1.4"}, true},
		{"missing config file", []string{"-config", "/nonexistent.json"}, false},
		{"zero path length", []string{"-H", "0"}, true},
		{"negative capacity", []string{"-C", "-5"}, true},
		{"NaN capacity", []string{"-C", "NaN"}, true},
		{"infinite capacity", []string{"-C", "Inf"}, true},
		{"infinite through population", []string{"-n0", "Inf"}, true},
		{"NaN cross population", []string{"-nc", "NaN"}, true},
		{"zero violation probability", []string{"-eps", "0"}, true},
		{"checkpoint outside a sweep", []string{"-checkpoint", filepath.Join(t.TempDir(), "check.frag")}, true},
		{"negative alpha", []string{"-alpha", "-1"}, true},
		{"NaN alpha", []string{"-alpha", "NaN"}, true},
		{"infinite alpha", []string{"-alpha", "Inf"}, true},
		{"zero replications", []string{"-reps", "0"}, true},
		{"negative replication workers", []string{"-simworkers", "-1"}, true},
		// A stray word ends flag parsing: -sched sp would be dropped.
		{"stray argument", []string{"-H", "2", "extra", "-sched", "sp"}, true},
		// Checked where it is parsed, though no simulation runs.
		{"unknown measurement backend", []string{"-measure", "bogus"}, true},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: %v must error", tc.name, tc.args)
			continue
		}
		if tc.bad && !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s: %v: want core.ErrBadConfig, got %v", tc.name, tc.args, err)
		}
	}
	// An overload is a valid input without a finite bound: infeasible,
	// not bad.
	err := run([]string{"-n0", "3000"})
	if !errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("overload: want core.ErrInfeasible only, got %v", err)
	}
}

func TestRunFixedAlphaSmoke(t *testing.T) {
	// Fixed alpha avoids the full sweep: fast smoke test of the flag path.
	if err := run([]string{"-H", "2", "-sched", "fifo", "-n0", "20", "-nc", "40",
		"-alpha", "0.1", "-additive"}); err != nil {
		t.Fatal(err)
	}
}

// reportedAdditive runs delaybound -additive with a -report and returns
// the additive baseline the report records.
func reportedAdditive(t *testing.T, args ...string) float64 {
	t.Helper()
	report := filepath.Join(t.TempDir(), "r.json")
	args = append(args, "-additive", "-report", report)
	captureStdout(t, func() {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	})
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Bounds map[string]float64 `json:"bounds"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	v, ok := r.Bounds["additive_bound_slots"]
	if !ok {
		t.Fatalf("%v: the report records no additive_bound_slots (bounds %v)", args, r.Bounds)
	}
	return v
}

// TestAdditiveBaselineAtItsOwnAlpha: under an optimized α the additive
// baseline is the node-by-node bound at its own α optimum, the curve
// Fig. 4 draws, not the baseline re-priced at the network bound's α.
func TestAdditiveBaselineAtItsOwnAlpha(t *testing.T) {
	// Under SP the network bound's decay is α itself, not α/(H+1), so an
	// α recovered as Bound.Alpha·(H+1) overloads the baseline's path.
	if v := reportedAdditive(t, "-H", "3", "-sched", "sp", "-n0", "50", "-nc", "150"); math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
		t.Errorf("SP additive baseline = %g, want a finite bound", v)
	}

	f, err := os.Open(filepath.Join("..", "paperfigs", "testdata", "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := math.NaN()
	for _, row := range rows {
		if row[0] == "BMUX additive U=50%" && row[1] == "12" {
			if want, err = strconv.ParseFloat(row[2], 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if math.IsNaN(want) {
		t.Fatal("fig3.csv has no BMUX additive U=50% point at H=12")
	}
	n := strconv.FormatFloat(experiments.PaperSetup().FlowCount(0.5)/2, 'g', -1, 64)
	got := reportedAdditive(t, "-H", "12", "-sched", "bmux", "-n0", n, "-nc", n)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("additive baseline at H=12, U=50%% = %v, want fig3.csv's %v", got, want)
	}
}

// TestRunChecksReportDirFirst: a -report whose directory does not exist
// fails before the bound is computed and printed, not when the report
// is written at exit.
func TestRunChecksReportDirFirst(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	out := captureStdout(t, func() {
		err = run([]string{"-H", "2", "-report", filepath.Join(file, "dir", "r.json")})
	})
	if err == nil {
		t.Fatal("a -report under a regular file must fail")
	}
	if len(out) > 0 {
		t.Fatalf("stdout before the error:\n%s", out)
	}
}
