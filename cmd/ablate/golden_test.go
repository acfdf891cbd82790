package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins ablate's stdout byte for byte: every number it
// prints comes from the shared path builder and bound sweep of
// internal/experiments, and rewiring them must not move one digit.
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "ablate_quick_region.golden"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-quick", "-region"}
	got := captureStdout(t, func() {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout drifted from the golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
