package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins ablate's stdout byte for byte: every number it
// prints comes from the shared path builder and bound sweep of
// internal/experiments, and rewiring them must not move one digit. The
// run also writes its report, which must parse, with the region's
// infeasible points (NaN on stdout) as null.
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "ablate_quick_region.golden"))
	if err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "r.json")
	args := []string{"-quick", "-region", "-report", report}
	got := captureStdout(t, func() {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout drifted from the golden\ngot:\n%s\nwant:\n%s", got, want)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Extra struct {
			Region []struct{ Y []*float64 }
		}
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	nulls := 0
	for _, s := range rep.Extra.Region {
		for _, y := range s.Y {
			if y == nil {
				nulls++
			}
		}
	}
	if nan := bytes.Count(got, []byte("NaN")); len(rep.Extra.Region) != 3 || nulls != nan {
		t.Fatalf("report region: %d series with %d null points, want 3 series with the %d infeasible points null",
			len(rep.Extra.Region), nulls, nan)
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
