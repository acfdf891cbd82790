package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
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
