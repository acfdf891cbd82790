package scenario

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
)

// singleScenario adapts a one-point computation (a whole ablation grid, a
// configured path bound) to the Scenario interface. The Result's Detail
// carries the structured report; such scenarios are not resumable sweeps.
type singleScenario struct {
	info Info
	id   func(cfg Config) string
	eval func(ctx context.Context, cfg Config, be Backend) (Result, error)
}

func (s singleScenario) Info() Info { return s.info }

func (s singleScenario) Points(cfg Config) ([]Point, error) {
	return []Point{{ID: s.id(cfg)}}, nil
}

func (s singleScenario) Evaluate(ctx context.Context, cfg Config, _ Point, be Backend) (Result, error) {
	return s.eval(ctx, cfg, be)
}

// ablationSetup is the shared PaperSetup with the sweep context attached.
func ablationSetup(ctx context.Context) experiments.Setup {
	s := experiments.PaperSetup()
	s.Ctx = ctx
	return s
}

// ablationID builds the deterministic point ID of an ablation run.
func ablationID(name string, cfg Config) string {
	return name + "/u=" + strconv.FormatFloat(cfg.Float("util", 0.5), 'g', -1, 64) +
		"/quick=" + strconv.FormatBool(cfg.Bool("quick", false))
}

var ablationParams = []Param{
	{Name: "util", Kind: "float", Default: "0.5", Help: "total utilization of the sweeps"},
	{Name: "quick", Kind: "bool", Default: "false", Help: "smaller grids"},
}

// ablation builds an analytic scenario that runs one grid of the shared
// PaperSetup at the sweeps' total utilization. The utilization must be
// positive and finite; one >= 1 is a valid input with no finite bound
// (infeasible), not a bad one.
func ablation(name, desc string, params []Param, run func(s experiments.Setup, util float64, quick bool) (Result, error)) singleScenario {
	return singleScenario{
		info: Info{Name: name, Desc: desc, Backends: Analytic, Params: params},
		id:   func(cfg Config) string { return ablationID(name, cfg) },
		eval: func(ctx context.Context, cfg Config, _ Backend) (Result, error) {
			util := cfg.Float("util", 0.5)
			if !(util > 0) || math.IsInf(util, 1) {
				return Result{}, fmt.Errorf("%w: -util must be positive and finite, got %g", core.ErrBadConfig, util)
			}
			return run(ablationSetup(ctx), util, cfg.Bool("quick", false))
		},
	}
}

// The design-choice ablations and scaling analyses of DESIGN.md
// (command ablate), each as a registered analytic scenario.
func init() {
	Register(ablation("scaling",
		"growth of the network-service-curve bound vs the additive baseline, with fitted exponents", ablationParams,
		func(s experiments.Setup, util float64, quick bool) (Result, error) {
			hs := []int{2, 4, 8, 16, 24}
			if quick {
				hs = []int{2, 4, 8}
			}
			rep, err := s.Scaling(hs, util)
			if err != nil {
				return Result{}, err
			}
			return Result{Analytic: rep.NetworkExp, Detail: rep}, nil
		}))
	Register(ablation("edf-gain",
		"persistence of scheduler differentiation: FIFO/BMUX and EDF/BMUX bound ratios vs H", ablationParams,
		func(s experiments.Setup, util float64, quick bool) (Result, error) {
			hs := []int{1, 2, 4, 8, 16}
			if quick {
				hs = []int{2, 8}
			}
			rep, err := s.EDFGain(hs, util)
			if err != nil {
				return Result{}, err
			}
			var last float64
			if n := len(rep.EDFRatio); n > 0 {
				last = rep.EDFRatio[n-1]
			}
			return Result{Analytic: last, Detail: rep}, nil
		}))
	Register(ablation("recipe",
		"ablation: the paper's K-recipe (Eqs. 40-42) vs the exact inner solver", ablationParams,
		func(s experiments.Setup, util float64, quick bool) (Result, error) {
			hs := []int{2, 5, 10}
			if quick {
				hs = []int{2, 5}
			}
			rows, err := s.AblateRecipe(hs, util)
			if err != nil {
				return Result{}, err
			}
			return Result{Detail: rows}, nil
		}))
	Register(ablation("gamma-alpha",
		"ablation: fixed rate slack γ and fixed EBB decay α vs the optimized bound", ablationParams[:1],
		func(s experiments.Setup, util float64, _ bool) (Result, error) {
			var rows []experiments.AblationRow
			for _, frac := range []float64{0.25, 0.5, 0.75} {
				row, err := s.AblateGamma(5, util, frac)
				if err != nil {
					return Result{}, err
				}
				rows = append(rows, row)
			}
			row, err := s.AblateAlpha(5, util)
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, row)
			return Result{Detail: rows}, nil
		}))
	Register(singleScenario{
		info: Info{
			Name:     "region",
			Desc:     "two-class admissible region on one link (EDF vs FIFO vs SP), C=50 Mbps, d1=10 ms, d2=100 ms",
			Backends: Analytic,
		},
		id: func(Config) string { return "region/c=50/d1=10/d2=100" },
		eval: func(ctx context.Context, _ Config, _ Backend) (Result, error) {
			spec := experiments.RegionSpec{Capacity: 50, D1: 10, D2: 100}
			series, err := ablationSetup(ctx).AdmissibleRegion(spec, []float64{10, 40, 80, 120, 160})
			if err != nil {
				return Result{}, err
			}
			return Result{Detail: series}, nil
		},
	})
}
