package runner

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
	"deltasched/internal/faults"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
	"deltasched/internal/scenario"
	"deltasched/internal/shard"
)

// optimizerProbe wires the core optimizer's introspection seam to
// registry-backed counters, so a -metrics-addr endpoint serves the
// optimizer's work breakdown live and every report snapshots it.
// Registration is idempotent, so repeated Main calls (tests) reuse the
// same counters.
func optimizerProbe() *core.OptProbe {
	r := obs.Default
	return &core.OptProbe{
		DelayBoundCalls:  r.Counter("core_delaybound_calls_total", "top-level gamma-optimized DelayBound solves", nil),
		GammaProbes:      r.Counter("core_gamma_probes_total", "delay evaluations at fixed gamma (grid + golden + final)", nil),
		GammaBatchProbes: r.Counter("core_gamma_batch_probes_total", "gamma probes priced through the batched table-driven kernels", nil),
		InnerMinCalls:    r.Counter("core_innermin_calls_total", "inner minimization solves (Eq. 38)", nil),
		InnerCandidates:  r.Counter("core_innermin_candidates_total", "candidate breakpoints enumerated by the inner minimization", nil),
		InnerReplays:     r.Counter("core_innermin_replays_total", "candidate breakpoints kept by the inner minimization's screen and priced exactly", nil),
		EnvelopeSegs:     r.Counter("core_envelope_segments_total", "envelope segments assembled and merged by the path bound", nil),
		AlphaSweeps:      r.Counter("core_alpha_sweeps_total", "alpha (EBB decay) optimization sweeps", nil),
		AlphaProbes:      r.Counter("core_alpha_probes_total", "alpha evaluations priced", nil),
		AlphaSkips:       r.Counter("core_alpha_probes_skipped_total", "alpha-grid probes skipped unpriced because a delay floor proved they cannot win; priced plus skipped equals the alpha probes the sweeps would price without a floor", nil),
		EDFBisections:    r.Counter("core_edf_bisections_total", "EDF fixed-point bisection iterations", nil),
		AdditiveProbes:   r.Counter("core_additive_probes_total", "additive-analysis gamma evaluations", nil),
		PricerBuilds:     r.Counter("core_path_pricer_builds_total", "path-bound pricing tables built (one per gamma search, one for all the searches of an EDF fixed point, or one per alpha floor)", nil),
		SigmaReuses:      r.Counter("core_sigma_reuses_total", "EDF fixed-point gamma probes whose sigma was replayed from an earlier gamma search of the same fixed point", nil),
		GammaSkips:       r.Counter("core_gamma_probes_skipped_total", "EDF fixed-point gamma-grid probes skipped because a grid floor proved they cannot win", nil),
		IntervalDecisions: r.Counter("core_edf_interval_decisions_total",
			"EDF bisection steps whose golden section an interval bound ended; each bound is one inner solve, so core_innermin_calls_total minus core_gamma_probes_total counts the bound solves", nil),
	}
}

// App is one CLI process: its flag set, the signal-aware context, the
// observability session, the resume checkpoint, and the selected
// backend. New registers the shared flags; Main parses, wires the
// lifecycle, and hands a ready App to the command body.
type App struct {
	Name    string
	FS      *flag.FlagSet
	Ctx     context.Context
	Sess    *obs.Session
	Check   *shard.Checkpoint
	Backend scenario.Backend

	obsFlags   obs.Flags
	checkpoint *string
	resume     *bool
	catalog    *bool
	backendStr *string
	reps       *int
	simWorkers *int
	measure    *string
	params     []string // flags declared by Flags, read back by Config

	// Sharded-sweep flag group and point resilience knobs (shard.go).
	shardStr     *string
	claimN       *int
	mergeFlag    *bool
	shardDir     *string
	leaseTTL     *time.Duration
	pointTimeout *time.Duration
	pointRetries *int
	retryBase    *time.Duration
	faultsStr    *string

	shardMode shardMode
	shardSpec shard.Spec
	injector  *faults.Injector
}

// New creates an App and registers the flags every command shares:
// -checkpoint/-resume, -scenarios, -backend (defaulting to def), and the
// observability set (-report, -progress, profiling). A command adds its
// scenarios' parameters with Flags, and its own flags to app.FS, before Main.
func New(name string, def scenario.Backend) *App {
	a := &App{Name: name, FS: flag.NewFlagSet(name, flag.ContinueOnError)}
	a.checkpoint = a.FS.String("checkpoint", "", "record completed analytic sweep points in this file (a shard fragment of shard 0/1)")
	a.resume = a.FS.Bool("resume", false, "skip points already recorded in the -checkpoint file")
	a.catalog = a.FS.Bool("scenarios", false, "print the scenario catalog and exit")
	a.backendStr = a.FS.String("backend", def.String(), "evaluation backend: analytic, sim or both")
	a.reps = a.FS.Int("reps", 1, "sim backend: independent replications per point (splits the slot budget across disjoint seed streams; reps>1 adds Student-t CI metrics)")
	a.simWorkers = a.FS.Int("simworkers", 0, "sim backend: max concurrent replications per point (0 = all cores)")
	a.measure = a.FS.String("measure", "exact", "sim backend: measurement backend — exact (full per-slot samples, byte-identical goldens) or sketch (fixed-memory mergeable quantile sketch; reports a rank-error bound)")
	a.registerShardFlags()
	a.obsFlags.Register(a.FS)
	return a
}

// Flags declares a flag for each Param of the named scenarios, of the
// Param's type, default and help; Config reads them back. A name the
// flag set already has, such as the shared -reps, is not declared
// again, and one whose default differs in type or value panics.
func (a *App) Flags(names ...string) {
	for _, name := range names {
		sc, err := scenario.Get(name)
		if err != nil {
			panic(err)
		}
		for _, p := range sc.Info().Params {
			if f := a.FS.Lookup(p.Name); f != nil {
				if g, ok := f.Value.(flag.Getter); !ok || g.Get() != p.Default {
					panic(fmt.Sprintf("runner: parameter %q of scenario %s defaults to %v (%T), its flag to %s",
						p.Name, name, p.Default, p.Default, f.DefValue))
				}
				continue
			}
			switch def := p.Default.(type) {
			case int:
				a.FS.Int(p.Name, def, p.Help)
			case int64:
				a.FS.Int64(p.Name, def, p.Help)
			case float64:
				a.FS.Float64(p.Name, def, p.Help)
			case bool:
				a.FS.Bool(p.Name, def, p.Help)
			case string:
				a.FS.String(p.Name, def, p.Help)
			default:
				panic(fmt.Sprintf("runner: parameter %q of scenario %s has a %T default", p.Name, name, def))
			}
			a.params = append(a.params, p.Name)
		}
	}
}

// Config returns the values of the flags Flags declared, each of its
// Param's type.
func (a *App) Config() scenario.Config {
	cfg := make(scenario.Config, len(a.params))
	for _, name := range a.params {
		cfg[name] = a.FS.Lookup(name).Value.(flag.Getter).Get()
	}
	return cfg
}

// ReportEnabled reports whether -report was set: commands use it to
// enable expensive instrumentation (per-node probes) only when a report
// will be written.
func (a *App) ReportEnabled() bool { return a.obsFlags.Report != "" }

// Main runs the command: parse flags, honour -scenarios, load or create
// the checkpoint, install signal handling, start the observability
// session, and call body with everything wired. The deferred teardown
// mirrors the historical CLIs: the checkpoint and a truthfully-marked
// report land on disk even (especially) when the run is cut short.
func (a *App) Main(args []string, body func(a *App) error) (retErr error) {
	if err := a.FS.Parse(args); err != nil {
		return err
	}
	// Parsing stops at the first non-flag word, so every flag after a
	// stray argument would be dropped without a word.
	if a.FS.NArg() > 0 {
		return fmt.Errorf("%w: unexpected argument %q (the flags after it would be ignored)", core.ErrBadConfig, a.FS.Arg(0))
	}
	if *a.catalog {
		return PrintCatalog(os.Stdout)
	}
	be, err := scenario.ParseBackend(*a.backendStr)
	if err != nil {
		return fmt.Errorf("%w: %v", core.ErrBadConfig, err)
	}
	a.Backend = be
	if *a.reps < 1 || *a.simWorkers < 0 {
		return fmt.Errorf("%w: -reps wants at least 1 and -simworkers at least 0, got %d and %d",
			core.ErrBadConfig, *a.reps, *a.simWorkers)
	}
	if _, err := measure.ParseBackend(*a.measure); err != nil {
		return fmt.Errorf("%w: %v", core.ErrBadConfig, err)
	}
	if err := a.initShard(); err != nil {
		return err
	}
	if *a.resume && *a.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	var salvagedPoints int
	if *a.checkpoint != "" {
		if *a.resume {
			if a.Check, err = shard.LoadCheckpoint(*a.checkpoint); err != nil {
				return err
			}
			if n, salvaged := a.Check.Salvage(); salvaged {
				salvagedPoints = n
				fmt.Fprintf(os.Stderr, "%s: checkpoint %s was damaged; salvaged %d intact points, the rest will be recomputed\n",
					a.Name, *a.checkpoint, n)
			}
			fmt.Fprintf(os.Stderr, "%s: resuming with %d checkpointed points\n", a.Name, a.Check.Len())
		} else {
			a.Check = shard.NewCheckpoint(*a.checkpoint)
		}
	}

	ctx, stopSignals := obs.SignalContext(context.Background())
	defer stopSignals()

	sess, err := a.obsFlags.Start(a.Name)
	if err != nil {
		return err
	}
	a.Sess = sess
	// The context carries the session's root span (when tracing), so every
	// layer below — scenario, experiments, core — can open child spans
	// through obs.StartSpan without new plumbing.
	a.Ctx = sess.Context(ctx)
	if sess.Instrumented() {
		core.SetOptProbe(optimizerProbe())
	}
	defer func() {
		if ferr := a.Check.Flush(); ferr != nil && retErr == nil {
			retErr = ferr
		}
		if obs.Interrupted(retErr) {
			sess.Report.SetInterrupted()
		}
		if cerr := sess.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	sess.Report.Config = obs.ConfigFromFlags(a.FS)
	if salvagedPoints > 0 {
		obs.Default.Gauge("checkpoint_salvaged_points",
			"intact points salvaged from a damaged -checkpoint file", nil).Set(float64(salvagedPoints))
	}

	return body(a)
}

// RunOpt names a scenario run in the observability outputs. Zero values
// default to the scenario name.
type RunOpt struct {
	Label string // progress display label
	Stage string // name of the run's span, one of the report's stages
	Sweep string // report sweep key (multi-point scenarios)
}

// Run executes a scenario against the App's backend: enumerate points,
// fan out over ParMapCtx (cancellable, panic-isolating), run each point
// under the -point-timeout/-point-retries policy (shard.Retry), drive
// progress and the report sweep, and serve and record points through
// the checkpoint. Results come back in point order.
//
// The checkpoint and the shard flags apply to analytic scalar sweeps
// only: only there is a point a single resumable float. On any other
// run they fail as core.ErrBadConfig instead of doing nothing.
func (a *App) Run(sc scenario.Scenario, cfg scenario.Config, opt RunOpt) ([]scenario.Point, []scenario.Result, error) {
	info := sc.Info()
	if opt.Label == "" {
		opt.Label = info.Name
	}
	if opt.Stage == "" {
		opt.Stage = info.Name
	}
	if opt.Sweep == "" {
		opt.Sweep = info.Name
	}
	be := a.Backend
	if be&^info.Backends != 0 {
		return nil, nil, fmt.Errorf("%w: scenario %q runs on backend %s, not %s",
			core.ErrBadConfig, info.Name, info.Backends, be)
	}
	if (a.Check != nil || a.shardMode != shardOff) && !(info.Sweep && be == scenario.Analytic) {
		return nil, nil, fmt.Errorf("%w: -checkpoint and sharded runs apply to analytic scalar sweeps; scenario %q under backend %s is not one",
			core.ErrBadConfig, info.Name, be)
	}

	// The replication and measurement flags are run-engine knobs, not
	// scenario parameters: inject them for every sim-capable run (before
	// Points, so replicated point IDs carry their reps=R / measure=sketch
	// tags). Scenarios without a sim path ignore the keys.
	if be.Has(scenario.Sim) {
		cfg = cfg.With("reps", *a.reps).With("simworkers", *a.simWorkers).With("measure", *a.measure)
	}
	// Resolved once here, the config reaches every point complete, and
	// the registry passes it on without a copy.
	cfg, err := info.Resolve(cfg)
	if err != nil {
		return nil, nil, err
	}

	pts, err := sc.Points(cfg)
	if err != nil {
		return nil, nil, err
	}

	// Sharded runs take their own path: partition the ID universe, write
	// or merge fragments.
	if a.shardMode != shardOff {
		return a.runSharded(sc, cfg, opt, pts)
	}

	pr := a.Sess.NewProgress(opt.Label)
	var onDone func(done, total int)
	if info.Sweep {
		onDone = func(done, total int) {
			a.Sess.Report.ObserveSweep(opt.Sweep, done, total)
			pr.Observe(done, total)
		}
	} else {
		// Single-shot scenarios report fine-grained progress from inside
		// Evaluate (e.g. the tandem simulation's slot loop).
		cfg = cfg.WithProgress(pr.Observe)
	}

	eval := a.pointEval(sc, cfg)
	pol := a.retryPolicy()
	fn := func(ctx context.Context, pt scenario.Point) (scenario.Result, error) {
		if v, ok := a.Check.Lookup(pt.ID); ok {
			return scenario.Result{Analytic: v}, nil
		}
		res, err := shard.Retry(ctx, pol, pt.ID, func(actx context.Context) (scenario.Result, error) {
			return eval(actx, pt)
		})
		if err != nil {
			return scenario.Result{}, err
		}
		a.Check.Record(pt.ID, res.Analytic)
		return res, nil
	}

	runCtx, runSpan := obs.StartSpan(a.Ctx, opt.Stage)
	rs, err := experiments.ParMapCtx(runCtx, 0, pts, fn, onDone)
	runSpan.End()
	if err != nil {
		reason := "failed"
		if obs.Interrupted(err) {
			reason = "interrupted"
		}
		pr.Abort(reason)
		return nil, nil, err
	}
	pr.Finish()
	return pts, rs, nil
}

// pointEval returns the one point evaluator of Run and runSharded: each
// call opens the "point" span, evaluates the point on the App's backend,
// and feeds the per-scenario run metrics (evaluated-point count and
// wall-time distribution, labeled by scenario so a multi-figure run
// breaks down per workload on the /metrics endpoint and in the report
// snapshot). In a sweep an infeasible point is a legitimate data point —
// the figure shows a gap there — and comes back as NaN; every other
// error is returned, so bugs and interrupts abort the run instead of
// being plotted as gaps.
func (a *App) pointEval(sc scenario.Scenario, cfg scenario.Config) func(context.Context, scenario.Point) (scenario.Result, error) {
	info := sc.Info()
	pointsTotal := obs.Default.Counter("runner_points_total",
		"scenario points evaluated", obs.Labels{"scenario": info.Name})
	pointSeconds := obs.Default.Histogram("runner_point_seconds",
		"per-point evaluation wall time", obs.ExpBuckets(1e-4, 4, 12),
		obs.Labels{"scenario": info.Name})
	return func(ctx context.Context, pt scenario.Point) (scenario.Result, error) {
		t0 := time.Now()
		pctx, psp := obs.StartSpan(ctx, "point")
		if psp != nil {
			psp.SetAttr("id", pt.ID)
		}
		res, err := sc.Evaluate(pctx, cfg, pt, a.Backend)
		psp.End()
		pointSeconds.Observe(time.Since(t0).Seconds())
		pointsTotal.Inc()
		switch {
		case err == nil:
			return res, nil
		case info.Sweep && errors.Is(err, core.ErrInfeasible):
			return scenario.Result{Analytic: math.NaN()}, nil
		default:
			return scenario.Result{}, err
		}
	}
}
