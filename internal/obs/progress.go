package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Progress prints throttled progress lines for a long-running batch:
// points done of total, the average wall time per point, and an ETA. It
// is safe for concurrent Observe calls, and a nil *Progress discards
// everything, so callers can thread one through unconditionally.
type Progress struct {
	mu        sync.Mutex
	label     string
	out       io.Writer
	start     time.Time
	lastLine  time.Time
	minGap    time.Duration
	finished  bool
	lastDone  int
	lastTotal int
}

// NewProgress creates a reporter writing to out (os.Stderr when nil).
// Lines are rate-limited to roughly five per second; the first and the
// final observation always print.
func NewProgress(label string, out io.Writer) *Progress {
	if out == nil {
		out = os.Stderr
	}
	return &Progress{label: label, out: out, start: time.Now(), minGap: 200 * time.Millisecond}
}

// Observe reports that done of total points have completed.
func (p *Progress) Observe(done, total int) {
	if p == nil || done <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastDone, p.lastTotal = done, total
	now := time.Now()
	if done < total && !p.lastLine.IsZero() && now.Sub(p.lastLine) < p.minGap {
		return
	}
	p.lastLine = now
	elapsed := now.Sub(p.start)
	perPoint := elapsed / time.Duration(done)
	line := fmt.Sprintf("%s: %d/%d (%.1f%%) | %s/point | elapsed %s",
		p.label, done, total, 100*float64(done)/float64(max(total, 1)),
		fmtDur(perPoint), fmtDur(elapsed))
	if done < total {
		line += fmt.Sprintf(" | eta %s", fmtDur(perPoint*time.Duration(total-done)))
	} else {
		p.finished = true
	}
	fmt.Fprintln(p.out, line)
}

// Finish prints a closing line with the total elapsed time, unless the
// final Observe already did.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	p.finished = true
	fmt.Fprintf(p.out, "%s: done in %s\n", p.label, fmtDur(time.Since(p.start)))
}

// Abort prints a final line for a batch that is stopping early (error or
// interrupt), so the display never stalls mid-ETA: the last observed
// done/total counts and the elapsed time. Nil-safe and idempotent with
// Finish — whichever runs first closes the display.
func (p *Progress) Abort(reason string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	p.finished = true
	if reason == "" {
		reason = "aborted"
	}
	fmt.Fprintf(p.out, "%s: %s at %d/%d after %s\n",
		p.label, reason, p.lastDone, p.lastTotal, fmtDur(time.Since(p.start)))
}

// fmtDur trims durations to a readable precision across the µs–minutes
// range the tools produce.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(10 * time.Nanosecond).String()
	}
}
