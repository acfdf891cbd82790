package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasched/cmd/internal/docargs"
	"deltasched/internal/core"
	"deltasched/internal/plot"
	"deltasched/internal/scenario"
)

// TestRunHelpIsErrHelp: -h surfaces flag.ErrHelp, alone and after
// every paperfigs command line README.md and EXPERIMENTS.md show, which
// run reaches only once it accepted every documented flag.
func TestRunHelpIsErrHelp(t *testing.T) {
	for _, args := range append([][]string{nil}, docargs.Args(t, "paperfigs")...) {
		if err := run(append(args, "-h")); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("paperfigs %s -h: want flag.ErrHelp, got %v", strings.Join(args, " "), err)
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("unknown flag must be a plain error, got %v", err)
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	if err := run([]string{"-backend", "quantum"}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

// TestRunCheckpointNeedsAnalyticBackend: a checkpoint records analytic
// sweep points only, so asking for one under the sim backends is a bad
// configuration, not a run that silently writes nothing.
func TestRunCheckpointNeedsAnalyticBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	err := run([]string{"-quick", "-fig", "1", "-backend", "both", "-checkpoint", path})
	if !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("-backend both -checkpoint: want core.ErrBadConfig, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused run wrote a checkpoint: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9"},
		{"-fig", "1,2"},
		{"-backend", "sim", "-reps", "0"},
		{"-backend", "sim", "-reps", "-3"},
		{"-simworkers", "-1"},
		// -simeps is checked before any point runs, on every backend.
		{"-fig", "1", "-backend", "sim", "-slots", "1000", "-simeps", "2"},
		{"-fig", "2", "-backend", "both", "-slots", "1000", "-simeps", "2"},
		{"-fig", "2", "-backend", "sim", "-slots", "1000", "-simeps", "NaN"},
		{"-fig", "3", "-simeps", "0"},
		{"-fig", "3", "-outdir", t.TempDir(), "extra", "-fig", "9"},
	} {
		if err := run(append([]string{"-quick"}, args...)); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%v: want core.ErrBadConfig, got %v", args, err)
		}
	}
}

// TestRunSimBackendPlotsQuantiles: with no analytic bound to draw, the
// sim backend's figure and CSV carry each point's simulated delay
// quantile, recomputed here straight from the scenario.
func TestRunSimBackendPlotsQuantiles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a quick figure twice")
	}
	out := filepath.Join(t.TempDir(), "d")
	quietRun(t, []string{"-quick", "-fig", "2", "-backend", "sim", "-slots", "1000", "-outdir", out})
	got, err := os.ReadFile(filepath.Join(out, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}

	sc, err := scenario.Get("fig2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.Config{"quick": true, "slots": 1000, "seed": int64(1), "simeps": 0.01,
		"reps": 1, "simworkers": 0, "measure": "exact"}
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]scenario.Result, len(pts))
	for i, pt := range pts {
		res, err := sc.Evaluate(context.Background(), cfg, pt, scenario.Sim)
		if err != nil {
			t.Fatalf("point %s: %v", pt.ID, err)
		}
		q, ok := res.Sim["sim_delay_quantile_slots"]
		if !ok {
			t.Fatalf("point %s: no simulated quantile", pt.ID)
		}
		rs[i].Analytic = q
	}
	var want bytes.Buffer
	if err := plot.CSV(&want, scenario.Collect(pts, rs)...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) || strings.Contains(string(got), "NaN") {
		t.Fatalf("fig2.csv does not hold the simulated quantiles\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestRunChecksOutdirFirst: an -outdir that cannot be created fails
// before the first figure is computed, not after it: nothing reaches
// stdout, no table and no "computed in" line.
func TestRunChecksOutdirFirst(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	old := os.Stdout
	os.Stdout = stdout
	func() {
		defer func() { os.Stdout = old }()
		err = run([]string{"-quick", "-fig", "1", "-outdir", filepath.Join(file, "sub")})
	}()
	if err == nil {
		t.Fatal("an -outdir under a regular file must fail")
	}
	if out, _ := os.ReadFile(stdout.Name()); len(out) > 0 {
		t.Fatalf("stdout before the error:\n%s", out)
	}
}
