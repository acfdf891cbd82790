package obs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestInterruptedClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("boom"), false},
		{ErrInterrupted, true},
		{fmt.Errorf("figure 1: %w", ErrInterrupted), true},
		{context.Canceled, true},
		{fmt.Errorf("sweep: %w", context.Canceled), true},
		{context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := Interrupted(c.err); got != c.want {
			t.Errorf("Interrupted(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestSignalContextCancelsOnParent(t *testing.T) {
	parent, cancelParent := context.WithCancel(context.Background())
	ctx, stop := SignalContext(parent)
	defer stop()
	select {
	case <-ctx.Done():
		t.Fatal("fresh signal context already cancelled")
	default:
	}
	cancelParent()
	<-ctx.Done() // must propagate parent cancellation
}

func TestProgressAbortFlushesFinalLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("sweep", &buf)
	p.Observe(3, 10)
	p.Abort("interrupted")
	out := buf.String()
	if !strings.Contains(out, "interrupted at 3/10") {
		t.Fatalf("abort line missing counts: %q", out)
	}
	before := buf.Len()
	p.Finish() // already closed: must not print again
	p.Abort("again")
	if buf.Len() != before {
		t.Fatalf("closed progress printed more output: %q", buf.String())
	}
}

func TestProgressAbortNilSafe(t *testing.T) {
	var p *Progress
	p.Abort("x") // must not panic
}

func TestReportInterruptedAndSweeps(t *testing.T) {
	r := NewReport("test")
	r.ObserveSweep("fig1", 3, 54)
	r.ObserveSweep("fig1", 7, 54)
	r.SetInterrupted()
	if !r.Interrupted {
		t.Fatal("SetInterrupted did not mark the report")
	}
	if got := r.Sweeps["fig1"]; got != (SweepCount{Done: 7, Total: 54}) {
		t.Fatalf("sweep count = %+v, want the last observation 7/54", got)
	}
	var nilReport *RunReport
	nilReport.SetInterrupted()
	nilReport.ObserveSweep("x", 1, 2) // nil-safety
}

// TestSecondSignalKills re-executes the test binary as a helper that
// ignores its cancelled signal context, as a wedged run would: the
// first SIGTERM must cancel the context, and the second must kill the
// process the default way.
func TestSecondSignalKills(t *testing.T) {
	if os.Getenv("OBS_SIGNAL_HELPER") == "1" {
		ctx, stop := SignalContext(context.Background())
		defer stop()
		fmt.Println("ready")
		<-ctx.Done()
		fmt.Println("cancelled")
		time.Sleep(time.Minute) // wedged: never returns on its own
		os.Exit(3)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondSignalKills$")
	cmd.Env = append(os.Environ(), "OBS_SIGNAL_HELPER=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(out)
	await := func(want string) {
		t.Helper()
		for lines.Scan() {
			if lines.Text() == want {
				return
			}
		}
		t.Fatalf("helper exited before printing %q", want)
	}
	await("ready")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	await("cancelled")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		io.Copy(io.Discard, out)
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("helper ended with %v, want death by SIGTERM", err)
		}
		if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
			t.Fatalf("helper ended with %v, want death by SIGTERM", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("helper survived a second SIGTERM")
	}
}
