package main

import (
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"deltasched/internal/core"
)

func TestRunHelpIsErrHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h must surface flag.ErrHelp, got %v", err)
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
