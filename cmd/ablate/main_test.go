package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"deltasched/cmd/internal/docargs"
	"deltasched/internal/core"
	"deltasched/internal/plot"
)

// TestRunHelpIsErrHelp: -h surfaces flag.ErrHelp, alone and after
// every ablate command line README.md and EXPERIMENTS.md show, which
// run reaches only once it accepted every documented flag.
func TestRunHelpIsErrHelp(t *testing.T) {
	for _, args := range append([][]string{nil}, docargs.Args(t, "ablate")...) {
		if err := run(append(args, "-h")); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("ablate %s -h: want flag.ErrHelp, got %v", strings.Join(args, " "), err)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-util", "-0.5"},
		{"-util", "0"},
		{"-util", "NaN"},
		{"-util", "Inf"},
		{"-reps", "0"},
		{"-simworkers", "-1"},
		{"extra", "-util", "0"},
	} {
		err := run(append([]string{"-quick"}, args...))
		if !errors.Is(err, core.ErrBadConfig) || errors.Is(err, core.ErrInfeasible) {
			t.Errorf("%v: want core.ErrBadConfig, got %v", args, err)
		}
	}
	// Overload is a valid input without a finite bound: infeasible, not
	// bad.
	err := run([]string{"-quick", "-util", "1.5"})
	if !errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("-util 1.5: want core.ErrInfeasible only, got %v", err)
	}
}

func TestPlotTable(t *testing.T) {
	series := []plot.Series{{Label: "EDF", X: []float64{1, 2}, Y: []float64{3, 4}}}
	out := string(captureStdout(t, func() {
		if err := plotTable(series); err != nil {
			t.Error(err)
		}
	}))
	if !strings.Contains(out, "EDF") || !strings.Contains(out, "class-1 flows") {
		t.Fatalf("table output missing headers: %q", out)
	}
}
