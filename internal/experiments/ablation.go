package experiments

import (
	"fmt"
	"math"

	"deltasched/internal/core"
)

// AblationRow is one configuration of an ablation sweep, with the delay
// bound obtained by the full method and by the ablated variant.
type AblationRow struct {
	Label   string
	Full    float64 // bound with the component enabled (the paper's method)
	Ablated float64 // bound with the component removed / replaced
}

// Penalty returns the multiplicative looseness caused by the ablation.
func (r AblationRow) Penalty() float64 {
	if r.Full <= 0 {
		return math.NaN()
	}
	return r.Ablated / r.Full
}

// AblateRecipe compares the exact breakpoint-enumeration solver of
// Eq. (38) against the paper's explicit K-selection recipe (Eqs. 40–42)
// over a grid of path lengths and schedulers at the given utilization.
// DESIGN.md lists this as the "exact solver" design-choice ablation.
func (s Setup) AblateRecipe(hs []int, util float64) ([]AblationRow, error) {
	n0 := s.FlowCount(util) / 2
	var rows []AblationRow
	for _, h := range hs {
		for _, delta := range []float64{math.Inf(1), 0, -50} {
			res, err := s.PathBound(s.Source, h, n0, n0, delta)
			if err != nil {
				return nil, fmt.Errorf("experiments: recipe ablation H=%d Δ=%g: %w", h, delta, err)
			}
			recipe := core.PaperRecipe(h, s.Capacity, res.Gamma, cfgCrossRho(res, s.Path(s.Source, h, n0, n0, delta)), delta, res.Sigma)
			rows = append(rows, AblationRow{
				Label:   fmt.Sprintf("H=%d Δ=%g", h, delta),
				Full:    res.D,
				Ablated: recipe,
			})
		}
	}
	return rows, nil
}

// cfgCrossRho recovers the cross rate used at the optimal α of a result.
func cfgCrossRho(res core.Result, build func(alpha float64) (core.PathConfig, error)) float64 {
	// The combined bound's decay is α/(H+1) for homogeneous inputs with
	// Δ > −∞; invert to recover α, then rebuild the configuration. (Under
	// SP, Δ = −∞, only the through envelope is paid and the decay is α
	// itself; the recipe grid never includes it.)
	cfg, err := build(res.Bound.Alpha * float64(len(res.Theta)+1))
	if err != nil {
		return math.NaN()
	}
	return cfg.Cross.Rho
}

// AblateGamma quantifies the value of optimizing the rate slack γ:
// the ablated variant pins γ to a fixed fraction of its stability limit.
func (s Setup) AblateGamma(h int, util, fraction float64) (AblationRow, error) {
	if fraction <= 0 || fraction >= 1 {
		return AblationRow{}, fmt.Errorf("experiments: gamma fraction must be in (0,1), got %g", fraction)
	}
	n0 := s.FlowCount(util) / 2
	full, err := s.PathBound(s.Source, h, n0, n0, 0)
	if err != nil {
		return AblationRow{}, err
	}
	build := s.Path(s.Source, h, n0, n0, 0)
	_, fixed, err := core.OptimizeAlphaFunc(func(alpha float64) (float64, error) {
		cfg, err := build(alpha)
		if err != nil {
			return 0, err
		}
		r, err := core.DelayBoundAtGamma(cfg, s.Eps, fraction*cfg.GammaMax())
		if err != nil {
			return 0, err
		}
		return r.D, nil
	}, s.AlphaLo, s.AlphaHi)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:   fmt.Sprintf("H=%d U=%g%% γ=%.2f·γmax", h, util*100, fraction),
		Full:    full.D,
		Ablated: fixed,
	}, nil
}

// AblateAlpha quantifies the value of sweeping the EBB decay α: the
// ablated variant evaluates the bound at a single heuristic α (the decay
// at which the per-flow effective bandwidth exceeds the mean rate by 5%),
// a common shortcut in effective-bandwidth provisioning. Heuristics that
// push eb(α) higher quickly render the path unstable at realistic loads
// (reported as NaN), which is itself part of the finding.
func (s Setup) AblateAlpha(h int, util float64) (AblationRow, error) {
	n0 := s.FlowCount(util) / 2
	full, err := s.PathBound(s.Source, h, n0, n0, 0)
	if err != nil {
		return AblationRow{}, err
	}

	// Heuristic α: eb(α) = 1.05·mean rate, found by bisection.
	target := 1.05 * s.Source.MeanRate()
	lo, hi := s.AlphaLo, s.AlphaHi
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		eb, err := s.Source.EffectiveBandwidth(mid)
		if err != nil {
			return AblationRow{}, err
		}
		if eb < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	cfg, err := s.Path(s.Source, h, n0, n0, 0)(math.Sqrt(lo * hi))
	if err != nil {
		return AblationRow{}, err
	}
	ablated := math.NaN()
	if r, err := core.DelayBound(cfg, s.Eps); err == nil {
		ablated = r.D
	}
	return AblationRow{
		Label:   fmt.Sprintf("H=%d U=%g%% fixed α", h, util*100),
		Full:    full.D,
		Ablated: ablated,
	}, nil
}
