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

	"deltasched/internal/core"
	"deltasched/internal/plot"
	"deltasched/internal/scenario"
)

func TestRunHelpIsErrHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h must surface flag.ErrHelp, got %v", err)
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
