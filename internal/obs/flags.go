package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"
)

// Flags is the uniform observability flag block shared by every command:
//
//	-report FILE        write a JSON run report
//	-progress           report progress and stage timings on stderr
//	-cpuprofile FILE    write a CPU profile (go tool pprof)
//	-memprofile FILE    write a heap profile taken at exit
//	-trace FILE         write a runtime execution trace (go tool trace)
//	-tracefile FILE     write a Chrome trace_event span trace (chrome://tracing)
//	-metrics-addr ADDR  serve /metrics (Prometheus text) and /debug/vars on ADDR
type Flags struct {
	Report      string
	Progress    bool
	CPUProfile  string
	MemProfile  string
	Trace       string
	TraceFile   string
	MetricsAddr string
}

// Register installs the flags on a FlagSet.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Report, "report", "", "write a JSON run report to this file")
	fs.BoolVar(&f.Progress, "progress", false, "report progress and stage timings on stderr")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&f.TraceFile, "tracefile", "", "write a Chrome trace_event span trace to this file (open in chrome://tracing)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text) and /debug/vars on this address while the run lasts")
}

// Session is a started observability session: profiles running, report
// accumulating, spans collecting, metrics served. Close stops everything
// and writes the requested artifacts. All methods are nil-safe.
type Session struct {
	Report   *RunReport
	Progress bool
	Tracer   *Tracer // nil unless span tracing is active

	flags       Flags
	root        *Span
	cpuFile     *os.File
	traceFile   *os.File
	metricsStop func()
}

// Start begins a session for the named tool: it checks that the
// directories of the files Close writes exist, creates the run report,
// starts the CPU profile and execution trace if requested, opens the
// span tracer when a report or Chrome trace is wanted, and brings up the
// metrics endpoint when -metrics-addr is set.
func (f Flags) Start(tool string) (*Session, error) {
	// The report, span trace and heap profile are written at Close: a
	// directory that does not exist fails now, before the run's work.
	for _, out := range [...]struct{ name, path string }{
		{"report", f.Report}, {"tracefile", f.TraceFile}, {"memprofile", f.MemProfile},
	} {
		if out.path == "" {
			continue
		}
		if st, err := os.Stat(filepath.Dir(out.path)); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("obs: -%s %s: its directory does not exist", out.name, out.path)
		}
	}
	s := &Session{Report: NewReport(tool), Progress: f.Progress, flags: f}
	if f.TraceFile != "" || f.Report != "" {
		s.Tracer = NewTracer()
		_, s.root = s.Tracer.Root(context.Background(), tool)
	}
	if f.MetricsAddr != "" {
		addr, stop, err := ServeMetrics(f.MetricsAddr)
		if err != nil {
			return nil, err
		}
		s.metricsStop = stop
		fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics\n", tool, addr)
	}
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("obs: starting cpu profile: %w", err)
		}
		s.cpuFile = cf
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			s.stopProfiles()
			return nil, fmt.Errorf("obs: creating trace: %w", err)
		}
		if err := trace.Start(tf); err != nil {
			tf.Close()
			s.stopProfiles()
			return nil, fmt.Errorf("obs: starting trace: %w", err)
		}
		s.traceFile = tf
	}
	return s, nil
}

// Context installs the session's root span in ctx, so StartSpan calls
// below it open children. When tracing is off it returns ctx unchanged —
// downstream StartSpan calls then cost one context lookup and no-op.
func (s *Session) Context(ctx context.Context) context.Context {
	if s == nil || s.root == nil {
		return ctx
	}
	return ContextWithSpan(ctx, s.root)
}

// Instrumented reports whether any telemetry output that consumes the
// hot-path introspection counters was requested (report, span trace, or
// metrics endpoint) — the gate for installing optimizer/simulator
// probes, keeping untelemetried runs on the zero-overhead path.
func (s *Session) Instrumented() bool {
	if s == nil {
		return false
	}
	return s.Tracer != nil || s.flags.MetricsAddr != ""
}

// Stage times a named stage of the run as a child span of the session
// root, so the report lists it among its stages, and — when -progress
// is set — prints the timing on stderr. It returns the function that
// ends the stage.
func (s *Session) Stage(name string) func() {
	if s == nil {
		return func() {}
	}
	sp := s.root.Child(name)
	start := time.Now()
	return func() {
		sp.End()
		if s.Progress {
			fmt.Fprintf(os.Stderr, "%s: stage %-16s %s\n", s.Report.Tool, name, fmtDur(time.Since(start)))
		}
	}
}

// NewProgress returns a stderr progress reporter when -progress is set,
// nil otherwise (nil *Progress methods are no-ops).
func (s *Session) NewProgress(label string) *Progress {
	if s == nil || !s.Progress {
		return nil
	}
	return NewProgress(label, os.Stderr)
}

func (s *Session) stopProfiles() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
		s.cpuFile = nil
	}
	if s.traceFile != nil {
		trace.Stop()
		s.traceFile.Close()
		s.traceFile = nil
	}
}

// Close stops the CPU profile and trace, ends the root span, writes the
// heap profile, the Chrome span trace and the JSON report (span tree,
// and the stages and totals taken from it), and shuts down the metrics
// endpoint, returning the first error. Nil-safe and idempotent for the
// profile side.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	s.stopProfiles()
	if s.Tracer != nil {
		s.root.End()
		s.Report.SetSpans(s.Tracer.Tree())
		if n := s.Tracer.Dropped(); n > 0 {
			Default.Gauge("obs_spans_dropped", "spans discarded at the tracer's buffer cap", nil).Set(float64(n))
		}
		if s.flags.TraceFile != "" {
			keep(s.Tracer.WriteChromeTraceFile(s.flags.TraceFile))
		}
	}
	if s.flags.MemProfile != "" {
		mf, err := os.Create(s.flags.MemProfile)
		if err != nil {
			keep(fmt.Errorf("obs: creating mem profile: %w", err))
		} else {
			runtime.GC() // up-to-date allocation statistics
			keep(pprof.WriteHeapProfile(mf))
			keep(mf.Close())
		}
	}
	if s.flags.Report != "" {
		keep(s.Report.WriteFile(s.flags.Report))
	}
	if s.metricsStop != nil {
		s.metricsStop()
		s.metricsStop = nil
	}
	return first
}
