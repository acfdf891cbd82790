package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"deltasched/internal/experiments"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
	"deltasched/internal/plot"
	"deltasched/internal/runner"
	"deltasched/internal/scenario"
)

// errSetupDone aborts a set-up pass at its first point dispatch.
var errSetupDone = errors.New("perfbench: set-up pass ends at the first dispatched point")

// pass is one in-process CLI invocation and what it observed. The CLI
// bodies below mirror cmd/paperfigs and cmd/netsim: same flag set, same
// runner.App lifecycle, same scenario runs and output rendering, with
// the tables and charts written to io.Discard instead of stdout.
type pass struct {
	w         workload
	seed      int64
	dir       string
	setupOnly bool // stop at the first point dispatch (set-up timing)

	// root is the benchmark's own span for a traced pass (nil untraced);
	// spans hang off it directly and never enter the contexts handed to
	// the program, so tracing cannot change what the program computes.
	root   *obs.Span
	runSp  *obs.Span
	evalMu sync.Mutex
	evals  []evalSample
	runs   []runSample

	start, firstRun, bodyDone, end time.Time
	dispatch                       sync.Once
	firstEval                      time.Time
	points                         int
	err                            error // the invocation's outcome
	checkpointBytes                int64

	figCSV map[string][]byte // figure id → rendered CSV
	tandem *tandemOut
}

// evalSample is one traced Evaluate call.
type evalSample struct {
	class string
	dur   time.Duration
}

// runSample is one traced App.Run call.
type runSample struct {
	wall    time.Duration
	workers int
}

// timedScenario wraps the scenario handed to App.Run: it marks the first
// dispatch (the end of set-up) and, on traced passes, times Evaluate.
type timedScenario struct {
	scenario.Scenario
	p *pass
}

func (s timedScenario) Points(cfg scenario.Config) ([]scenario.Point, error) {
	pts, err := s.Scenario.Points(cfg)
	s.p.points += len(pts)
	return pts, err
}

func (s timedScenario) Evaluate(ctx context.Context, cfg scenario.Config, pt scenario.Point, be scenario.Backend) (scenario.Result, error) {
	s.p.dispatch.Do(func() { s.p.firstEval = time.Now() })
	if s.p.setupOnly {
		return scenario.Result{}, errSetupDone
	}
	if s.p.root == nil {
		return s.Scenario.Evaluate(ctx, cfg, pt, be)
	}
	sp := s.p.runSp.Child("scenario.Evaluate")
	t0 := time.Now()
	res, err := s.Scenario.Evaluate(ctx, cfg, pt, be)
	d := time.Since(t0)
	sp.SetAttr("id", pt.ID)
	sp.End()
	class := ""
	if t := s.p.w.tandem; t != nil {
		class = t.sched
	}
	if swp, ok := pt.Data.(experiments.SweepPoint); ok {
		class = schedClass(swp.Sched)
	}
	s.p.evalMu.Lock()
	s.p.evals = append(s.p.evals, evalSample{class: class, dur: d})
	s.p.evalMu.Unlock()
	return res, err
}

// schedClass maps a figure scheduler to its analysis class.
func schedClass(s experiments.Scheduler) string {
	switch s {
	case experiments.BMUX:
		return "bmux"
	case experiments.FIFO:
		return "fifo"
	case experiments.BMUXAdditive:
		return "additive"
	default:
		return "edf"
	}
}

// run is App.Run on the wrapped scenario, timed and spanned.
func (p *pass) run(a *runner.App, sc scenario.Scenario, cfg scenario.Config, opt runner.RunOpt) ([]scenario.Point, []scenario.Result, error) {
	if p.firstRun.IsZero() {
		p.firstRun = time.Now()
	}
	p.runSp = p.root.Child("runner.App.Run")
	before := p.points
	t0 := time.Now()
	pts, rs, err := a.Run(timedScenario{Scenario: sc, p: p}, cfg, opt)
	if p.root != nil {
		p.runs = append(p.runs, runSample{wall: time.Since(t0), workers: min(runtime.GOMAXPROCS(0), p.points-before)})
	}
	p.runSp.End()
	return pts, rs, err
}

// main runs the App lifecycle around body, stamping the phase times.
func (p *pass) main(app *runner.App, args []string, body func(a *runner.App) error) error {
	sp := p.root.Child("runner.App.Main")
	defer sp.End()
	var teardown *obs.Span
	err := app.Main(args, func(a *runner.App) error {
		err := body(a)
		p.bodyDone = time.Now()
		teardown = p.root.Child("runner.teardown")
		return err
	})
	p.end = time.Now()
	teardown.End()
	return err
}

// invoke runs the pass's CLI once.
func (p *pass) invoke() error {
	p.start = time.Now()
	args := p.w.args(p.seed, p.dir)
	switch p.w.tool {
	case "paperfigs":
		return p.paperfigs(args)
	case "netsim":
		return p.netsim(args)
	}
	return fmt.Errorf("unknown tool %q", p.w.tool)
}

// paperFigures are cmd/paperfigs' figure table.
var paperFigures = []struct {
	id, title, xlabel string
	logY              bool
}{
	{"1", "Fig. 2 (Example 1): e2e delay bound vs total utilization U (U0=15%, eps=1e-9)", "total utilization U [%]", true},
	{"2", "Fig. 3 (Example 2): e2e delay bound vs traffic mix Uc/U (U=50%, eps=1e-9)", "cross-traffic share Uc/U", false},
	{"3", "Fig. 4 (Example 3): e2e delay bound vs path length H (N0=Nc, eps=1e-9)", "path length H", true},
}

// paperfigs mirrors cmd/paperfigs' run on the analytic backend.
func (p *pass) paperfigs(args []string) error {
	app := runner.New("paperfigs", scenario.Analytic)
	var (
		fig    = app.FS.String("fig", "all", "figure to regenerate: 1, 2, 3 or all")
		quick  = app.FS.Bool("quick", false, "coarser sweeps (fast preview)")
		outdir = app.FS.String("outdir", "", "directory for CSV output (optional)")
		slots  = app.FS.Int("slots", 50000, "sim backend: simulated slots per point")
		seed   = app.FS.Int64("seed", 1, "sim backend: RNG seed")
		simeps = app.FS.Float64("simeps", 0.01, "sim backend: tail mass of the reported empirical quantile")
	)
	return p.main(app, args, func(a *runner.App) error {
		if a.Backend.Has(scenario.Sim) {
			a.Sess.Report.Seed = *seed
		}
		for _, f := range paperFigures {
			if *fig != "all" && *fig != f.id {
				continue
			}
			sc, err := scenario.Get("fig" + f.id)
			if err != nil {
				return err
			}
			cfg := scenario.Config{"quick": *quick, "slots": *slots, "seed": *seed, "simeps": *simeps}
			start := time.Now()
			pts, rs, err := p.run(a, sc, cfg, runner.RunOpt{Label: "fig " + f.id, Stage: "fig-" + f.id, Sweep: "fig" + f.id})
			if err != nil {
				return fmt.Errorf("figure %s: %w", f.id, err)
			}
			series := scenario.Collect(pts, rs)
			a.Sess.Report.SetExtra("fig"+f.id, series)
			a.Sess.Report.SetMetric("fig"+f.id+"_series", float64(len(series)))
			fmt.Fprintf(io.Discard, "\n%s   (computed in %v)\n\n", f.title, time.Since(start).Round(time.Millisecond))
			if err := plot.Table(io.Discard, f.xlabel, series...); err != nil {
				return err
			}
			if err := plot.ASCII(io.Discard, plot.Options{XLabel: f.xlabel, YLabel: "delay bound [ms]", LogY: f.logY, Width: 84, Height: 24}, series...); err != nil {
				return err
			}
			if *outdir == "" {
				continue
			}
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outdir, "fig"+f.id+".csv")
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := plot.CSV(out, series...); err != nil {
				out.Close()
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}

// tandemOut is what the netsim body queried from a tandem run.
type tandemOut struct {
	det       scenario.TandemDetail
	eps       float64
	quantiles [4]int // p50, p99, p99.9, p99.99; -1 when the query failed
	max       int
	violation float64
	rankError float64
}

// netsimQuantiles are the delay quantiles netsim prints and reports.
var netsimQuantiles = [4]float64{0.5, 0.99, 0.999, 0.9999}

// netsim mirrors cmd/netsim's run: the tandem scenario, then the
// summary queries (quantiles, max, rank error, CIs, violation fraction).
func (p *pass) netsim(args []string) error {
	app := runner.New("netsim", scenario.Both)
	var (
		h     = app.FS.Int("H", 3, "path length (number of nodes)")
		c     = app.FS.Float64("C", 20, "link capacity per node [kbit/slot]")
		n0    = app.FS.Int("n0", 30, "number of through MMOO flows")
		nc    = app.FS.Int("nc", 60, "number of cross MMOO flows per node")
		sched = app.FS.String("sched", "fifo", "scheduler: fifo, bmux, sp, edf, gps, drr")
		agg   = app.FS.String("agg", "per-source", "traffic aggregation: per-source or count")
		edfD0 = app.FS.Float64("edf-d0", 5, "EDF deadline of the through traffic [slots]")
		edfDc = app.FS.Float64("edf-dc", 50, "EDF deadline of the cross traffic [slots]")
		gpsW0 = app.FS.Float64("gps-w0", 1, "GPS weight of the through traffic")
		gpsWc = app.FS.Float64("gps-wc", 1, "GPS weight of the cross traffic")
		pkt   = app.FS.Float64("pktsize", 0, "packet size for non-preemptive service (0 = fluid)")
		slots = app.FS.Int("slots", 200000, "simulation length in slots")
		seed  = app.FS.Int64("seed", 1, "RNG seed")
		eps   = app.FS.Float64("eps", 1e-2, "violation probability for the analytical bound")
		every = app.FS.Int("probe-every", 1, "probe sampling stride in slots (with -report)")
	)
	return p.main(app, args, func(a *runner.App) error {
		a.Sess.Report.Seed = *seed
		sc, err := scenario.Get("tandem")
		if err != nil {
			return err
		}
		probeEvery := 0
		if a.ReportEnabled() {
			probeEvery = *every
		}
		cfg := scenario.Config{
			"H": *h, "C": *c, "n0": *n0, "nc": *nc,
			"sched": *sched, "agg": *agg, "edf-d0": *edfD0, "edf-dc": *edfDc,
			"gps-w0": *gpsW0, "gps-wc": *gpsWc, "pktsize": *pkt,
			"slots": *slots, "seed": *seed, "eps": *eps,
			"probe-every": probeEvery,
		}
		_, rs, err := p.run(a, sc, cfg, runner.RunOpt{Label: "netsim: slots", Stage: "simulate"})
		if err != nil {
			return err
		}
		det := rs[0].Detail.(scenario.TandemDetail)
		stop := a.Sess.Stage("analyze")
		defer stop()
		p.tandem = summarize(a, det, *eps)
		return nil
	})
}

// summarize runs netsim's output queries on a tandem result, rendering
// the lines netsim prints to io.Discard and recording the report values.
func summarize(a *runner.App, det scenario.TandemDetail, eps float64) *tandemOut {
	out := &tandemOut{det: det, eps: eps}
	w := io.Discard
	dist := det.Dist
	fmt.Fprintf(w, "simulated        : %.4g kbit, max node backlog %.4g kbit\n", det.Stats.ThroughArrived, det.Stats.MaxBacklog)
	if cf := dist.CensoredFraction(); cf > 0 {
		fmt.Fprintf(w, "censored mass    : %.3g\n", cf)
	}
	for i, p := range netsimQuantiles {
		out.quantiles[i] = -1
		if q, err := dist.Quantile(p); err == nil {
			out.quantiles[i] = q
			fmt.Fprintf(w, "delay p%-8.4g : %d slots\n", 100*p, q)
			a.Sess.Report.SetBound(fmt.Sprintf("delay_p%g_slots", 100*p), float64(q))
		}
	}
	out.max = -1
	if mx, err := dist.Max(); err == nil {
		out.max = mx
		fmt.Fprintf(w, "delay max        : %d slots\n", mx)
	}
	if re := dist.RankError(); re > 0 {
		out.rankError = re
		fmt.Fprintf(w, "quantile error   : rank within +%.3g (%s backend, %d B resident)\n", re, dist.BackendName(), dist.MemoryBytes())
		a.Sess.Report.SetMetric("quantile_rank_error", re)
	}
	if det.Reps > 1 {
		if m, half, err := measure.QuantileCI(det.PerRep, 1-eps); err == nil {
			fmt.Fprintf(w, "delay p%-8.4g : %.4g ± %.4g slots\n", 100*(1-eps), m, half)
			a.Sess.Report.SetBound("delay_quantile_ci_slots", half)
		}
	}
	fmt.Fprintf(w, "%s : %.4g slots at eps=%.3g\n", det.BoundLabel, det.Res.D, eps)
	a.Sess.Report.SetBound("delay_bound_slots", det.Res.D)
	out.violation = dist.ViolationFraction(det.Res.D)
	fmt.Fprintf(w, "empirical P(W>d) : %.3g\n", out.violation)
	a.Sess.Report.SetBound("empirical_violation_fraction", out.violation)
	if det.Reps > 1 {
		if m, half, err := measure.ViolationFractionCI(det.PerRep, det.Res.D); err == nil {
			fmt.Fprintf(w, "P(W>d) 95%% CI    : %.3g ± %.3g\n", m, half)
			a.Sess.Report.SetBound("empirical_violation_fraction_ci", half)
		}
	}
	a.Sess.Report.Nodes = det.Probe.Summaries()
	a.Sess.Report.SetMetric("through_arrived_kbit", det.Stats.ThroughArrived)
	a.Sess.Report.SetMetric("cross_arrived_kbit", det.Stats.CrossArrived)
	a.Sess.Report.SetMetric("max_node_backlog_kbit", det.Stats.MaxBacklog)
	return out
}

// newPass prepares a pass with a fresh private scratch directory.
func newPass(w workload, seed int64, setupOnly bool) (*pass, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	return &pass{w: w, seed: seed, dir: dir, setupOnly: setupOnly}, nil
}

// cleanup reads back what a figs pass wrote — the CSVs and the
// checkpoint's size — then removes the pass's scratch directory.
func (p *pass) cleanup() {
	if fi, err := os.Stat(filepath.Join(p.dir, "checkpoint.json")); err == nil {
		p.checkpointBytes = fi.Size()
	}
	if p.w.tool == "paperfigs" && !p.setupOnly {
		p.figCSV = make(map[string][]byte)
		for _, f := range paperFigures {
			if b, err := os.ReadFile(filepath.Join(p.dir, "figs", "fig"+f.id+".csv")); err == nil {
				p.figCSV[f.id] = b
			}
		}
	}
	os.RemoveAll(p.dir)
}

// setupSeconds is the time from the pass's start to its first point
// dispatch: runner.New, flag parsing, App.Main's session start,
// scenario.Get and Points.
func (p *pass) setupSeconds() float64 {
	if p.firstEval.IsZero() {
		return math.NaN()
	}
	return p.firstEval.Sub(p.start).Seconds()
}

// wallSeconds is the time from the first App.Run call until Main
// returned: every point evaluated, every output rendered, the
// checkpoint flushed and the session closed.
func (p *pass) wallSeconds() float64 { return p.end.Sub(p.firstRun).Seconds() }
