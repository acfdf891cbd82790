package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"deltasched/internal/shard"
)

// TestInterruptAndResume drives the real binary through the full
// robustness story: SIGINT mid-sweep must exit 130 leaving a valid
// checkpoint and an interrupted run report, and a -resume run must
// complete with CSV output byte-identical to an uninterrupted run's.
func TestInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "paperfigs")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building paperfigs: %v\n%s", err, out)
	}

	// Reference: an uninterrupted run.
	cleanDir := filepath.Join(dir, "clean")
	clean := exec.Command(bin, "-quick", "-fig", "1", "-outdir", cleanDir)
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("clean run: %v\n%s", err, out)
	}
	wantCSV, err := os.ReadFile(filepath.Join(cleanDir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: SIGINT once the checkpoint shows progress.
	outDir := filepath.Join(dir, "out")
	checkPath := filepath.Join(dir, "check.json")
	reportPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(bin, "-quick", "-fig", "1", "-outdir", outDir,
		"-checkpoint", checkPath, "-report", reportPath)
	var output bytes.Buffer
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("checkpoint never appeared\n%s", output.String())
		}
		if n, _ := checkpointPoints(checkPath); n > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("interrupted run: err=%v, want exit code 130\n%s", err, output.String())
	}

	// The checkpoint must be valid, partial, and flushed.
	n, perr := checkpointPoints(checkPath)
	if perr != nil {
		t.Fatalf("checkpoint unreadable after interrupt: %v", perr)
	}
	if n == 0 {
		t.Fatal("interrupted run flushed an empty checkpoint")
	}

	// The report must admit the interruption and carry sweep counts.
	var report struct {
		Interrupted bool `json:"interrupted"`
		Sweeps      map[string]struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"sweeps"`
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("interrupted run left no report: %v", err)
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if !report.Interrupted {
		t.Fatalf("report not marked interrupted:\n%s", raw)
	}
	sc, ok := report.Sweeps["fig1"]
	if !ok || sc.Done <= 0 || sc.Total <= 0 {
		t.Fatalf("report carries no fig1 sweep counts:\n%s", raw)
	}
	if sc.Done >= sc.Total {
		t.Skipf("sweep completed (%d/%d) before the signal landed; nothing left to resume", sc.Done, sc.Total)
	}

	// Resume and compare the shipped artifact byte for byte.
	resume := exec.Command(bin, "-quick", "-fig", "1", "-outdir", outDir,
		"-checkpoint", checkPath, "-resume")
	if out, err := resume.CombinedOutput(); err != nil {
		t.Fatalf("resume run: %v\n%s", err, out)
	}
	gotCSV, err := os.ReadFile(filepath.Join(outDir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("resumed CSV differs from the uninterrupted run\nresumed:\n%s\nclean:\n%s", gotCSV, wantCSV)
	}
}

// checkpointPoints reads the number of recorded points in a checkpoint
// file, tolerating a not-yet-created file.
func checkpointPoints(path string) (int, error) {
	f, err := shard.ReadFragment(path)
	if err != nil {
		return 0, err
	}
	return len(f.Records), nil
}

func TestResumeRequiresCheckpointFlag(t *testing.T) {
	if err := run([]string{"-resume"}); err == nil {
		t.Fatal("-resume without -checkpoint was accepted")
	}
}
