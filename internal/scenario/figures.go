package scenario

import (
	"context"
	"fmt"
	"math"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
	"deltasched/internal/measure"
	"deltasched/internal/sim"
)

// The paper's evaluation figures (Figs. 2–4) as scenarios. The analytic
// backend reproduces the published curves; the sim backend replays every
// point in the discrete-time simulator (deriving concrete EDF deadlines
// from the analytic bound) so a figure can be annotated with empirical
// delay quantiles.
func init() {
	Register(figScenario{
		name: "fig1",
		desc: "Fig. 2 (Example 1): delay bound vs total utilization (BMUX/FIFO/EDF, H=2,5,10)",
		enumerate: func(s experiments.Setup, quick bool) ([]experiments.SweepPoint, error) {
			utils := FloatSweep(0.20, 0.95, 0.05)
			if quick {
				utils = FloatSweep(0.20, 0.95, 0.15)
			}
			return s.Example1Points([]int{2, 5, 10}, utils)
		},
	})
	Register(figScenario{
		name: "fig2",
		desc: "Fig. 3 (Example 2): delay bound vs traffic mix Uc/U at U=50% (H=2,5,10)",
		enumerate: func(s experiments.Setup, quick bool) ([]experiments.SweepPoint, error) {
			mixes := FloatSweep(0.1, 0.9, 0.1)
			if quick {
				mixes = FloatSweep(0.1, 0.9, 0.2)
			}
			return s.Example2Points([]int{2, 5, 10}, mixes)
		},
	})
	Register(figScenario{
		name: "fig3",
		desc: "Fig. 4 (Example 3): delay bound vs path length H at N0=Nc (U=10,50,90%)",
		enumerate: func(s experiments.Setup, quick bool) ([]experiments.SweepPoint, error) {
			hs := IntSweep(1, 30, 1)
			if quick {
				hs = []int{1, 2, 4, 6, 8, 12, 16, 20, 25, 30}
			}
			return s.Example3Points(hs, []float64{0.1, 0.5, 0.9})
		},
	})
}

// FloatSweep enumerates lo, lo+step, … up to hi (inclusive within a 1e-9
// tolerance), accumulating exactly like the historical CLI sweeps so
// checkpoint IDs and CSV coordinates stay byte-identical across releases.
func FloatSweep(lo, hi, step float64) []float64 {
	var out []float64
	for x := lo; x <= hi+1e-9; x += step {
		out = append(out, x)
	}
	return out
}

// IntSweep enumerates lo, lo+step, … up to hi inclusive.
func IntSweep(lo, hi, step int) []int {
	var out []int
	for x := lo; x <= hi; x += step {
		out = append(out, x)
	}
	return out
}

// figScenario adapts one enumerated paper example to the Scenario
// interface.
type figScenario struct {
	name, desc string
	enumerate  func(s experiments.Setup, quick bool) ([]experiments.SweepPoint, error)
}

// figParams are the figure scenarios' parameters, shared by all three.
var figParams = []Param{
	{Name: "quick", Default: false, Help: "coarser sweep grids (fast preview)"},
	{Name: "slots", Default: 50000, Help: "sim backend: slot budget per point (split across replications)"},
	{Name: "reps", Default: 1, Help: "sim backend: independent replications per point; reps>1 adds Student-t CI metrics"},
	{Name: "simworkers", Default: 0, Help: "sim backend: max concurrent replications per point (0 = all cores)"},
	{Name: "seed", Default: int64(1), Help: "sim backend: RNG seed (root of the replication seed stream)"},
	{Name: "simeps", Default: 0.01, Help: "sim backend: tail mass of the reported empirical quantile"},
	{Name: "measure", Default: "exact", Help: "sim backend: measurement backend, exact or sketch (fixed memory, reported rank-error bound)"},
}

func (f figScenario) Info() Info {
	return Info{Name: f.name, Desc: f.desc, Backends: Both, Sweep: true, Params: figParams}
}

func (f figScenario) Points(cfg Config) ([]Point, error) {
	// Only the sim backend reads -simeps and -slots, inside a point's
	// simulation; a bad value fails here, on every backend, before any
	// point runs.
	if simeps := cfg.Float("simeps"); !(simeps > 0 && simeps < 1) {
		return nil, fmt.Errorf("%w: -simeps must be in (0,1), got %g", core.ErrBadConfig, simeps)
	}
	if slots := cfg.Int("slots"); slots <= 0 {
		return nil, fmt.Errorf("%w: -slots must be positive, got %d", core.ErrBadConfig, slots)
	}
	sps, err := f.enumerate(experiments.PaperSetup(), cfg.Bool("quick"))
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(sps))
	for i, sp := range sps {
		pts[i] = Point{ID: sp.ID, X: sp.X, Series: sp.Series, Data: sp}
	}
	return pts, nil
}

func (f figScenario) Evaluate(ctx context.Context, cfg Config, pt Point, be Backend) (Result, error) {
	sp, ok := pt.Data.(experiments.SweepPoint)
	if !ok {
		return Result{}, fmt.Errorf("scenario %s: point %s carries no sweep data", f.name, pt.ID)
	}
	s := experiments.PaperSetup()

	// The analytic bound: wanted directly, and needed by the sim backend
	// to provision EDF deadlines even when it is not reported.
	_, isEDF := sp.Sched.DeadlineRatio()
	bound := math.NaN()
	if be.Has(Analytic) || isEDF {
		d, err := s.EvalPoint(ctx, sp)
		if err != nil {
			return Result{}, err
		}
		bound = d
	}
	res := Result{Analytic: math.NaN()}
	if be.Has(Analytic) {
		res.Analytic = bound
	}

	if be.Has(Sim) {
		mk, err := f.simScheduler(sp, bound)
		if err != nil {
			return Result{}, err
		}
		backend, err := measure.ParseBackend(cfg.Str("measure"))
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", core.ErrBadConfig, err)
		}
		rep, err := runReplicated(ctx, simSpec{
			Src:        s.Source,
			H:          sp.H,
			C:          s.Capacity,
			N0:         int(math.Round(sp.N0)),
			Nc:         int(math.Round(sp.Nc)),
			MkSched:    mk,
			Slots:      cfg.Int("slots"),
			Seed:       cfg.Int64("seed"),
			Reps:       cfg.Int("reps"),
			SimWorkers: cfg.Int("simworkers"),
			Measure:    backend,
		})
		if err != nil {
			return Result{}, err
		}
		res.Sim = simMetrics(rep, cfg.Float("simeps"), bound)
	}
	return res, nil
}

// simScheduler maps a sweep point's discipline to a simulator scheduler
// factory. The additive baseline simulates as BMUX — it ablates the
// analysis, not the scheduler — and EDF deadlines are derived from the
// analytic bound via the provisioning rule of the figures.
func (f figScenario) simScheduler(sp experiments.SweepPoint, bound float64) (func(int) sim.Scheduler, error) {
	ratio, isEDF := sp.Sched.DeadlineRatio()
	if !isEDF {
		switch sp.Sched {
		case experiments.FIFO:
			return func(int) sim.Scheduler { return sim.NewFIFO() }, nil
		default: // BMUX and the additive BMUX baseline
			return func(int) sim.Scheduler { return sim.NewBMUX(sim.ThroughFlow) }, nil
		}
	}
	if math.IsNaN(bound) || math.IsInf(bound, 0) || bound <= 0 {
		return nil, fmt.Errorf("scenario %s: %w: no finite bound to provision EDF deadlines at %s",
			f.name, core.ErrInfeasible, sp.ID)
	}
	d0 := bound / float64(sp.H)
	dc := ratio * d0
	return func(int) sim.Scheduler {
		return sim.NewEDF(map[core.FlowID]float64{sim.ThroughFlow: d0, sim.CrossFlow: dc})
	}, nil
}
