package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"deltasched/internal/core"
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
