package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/plot"
)

func TestRunHelpIsErrHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h must surface flag.ErrHelp, got %v", err)
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
	// plotTable writes to stdout; capture it.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	series := []plot.Series{{Label: "EDF", X: []float64{1, 2}, Y: []float64{3, 4}}}
	perr := plotTable(series)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if !strings.Contains(buf.String(), "EDF") || !strings.Contains(buf.String(), "class-1 flows") {
		t.Fatalf("table output missing headers: %q", buf.String())
	}
}
