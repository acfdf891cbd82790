package experiments

import (
	"context"
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
			res, cfg, err := s.PathBound(s.Source, h, n0, n0, delta)
			if err != nil {
				return nil, fmt.Errorf("experiments: recipe ablation H=%d Δ=%g: %w", h, delta, err)
			}
			rows = append(rows, AblationRow{
				Label:   fmt.Sprintf("H=%d Δ=%g", h, delta),
				Full:    res.D,
				Ablated: core.PaperRecipe(h, s.Capacity, res.Gamma, cfg.Cross.Rho, delta, res.Sigma),
			})
		}
	}
	return rows, nil
}

// AblateGammaAlpha quantifies the value of optimizing the bound's two
// free parameters on the H-node FIFO path at utilization util. The
// optimized bound is priced once and is every row's Full. Each fraction
// adds a row whose ablated variant pins the rate slack γ to that
// fraction of its stability limit (α still swept). The last row's
// ablated variant evaluates the bound at a single heuristic α (the decay
// at which the per-flow effective bandwidth exceeds the mean rate by
// 5%), a common shortcut in effective-bandwidth provisioning. Heuristics
// that push eb(α) higher quickly render the path unstable at realistic
// loads (reported as NaN), which is itself part of the finding.
func (s Setup) AblateGammaAlpha(h int, util float64, fractions []float64) ([]AblationRow, error) {
	for _, fraction := range fractions {
		if fraction <= 0 || fraction >= 1 {
			return nil, fmt.Errorf("experiments: gamma fraction must be in (0,1), got %g", fraction)
		}
	}
	n0 := s.FlowCount(util) / 2
	full, _, err := s.PathBound(s.Source, h, n0, n0, 0)
	if err != nil {
		return nil, err
	}
	build := s.Path(s.Source, h, n0, n0, 0)
	var rows []AblationRow
	for _, fraction := range fractions {
		_, fixed, err := core.OptimizeAlphaFunc(s.ctx(), func(_ context.Context, alpha float64) (float64, float64, error) {
			cfg, err := build(alpha)
			if err != nil {
				return 0, 0, err
			}
			r, err := core.DelayBoundAtGamma(cfg, s.Eps, fraction*cfg.GammaMax())
			return r.D, r.D, err
		}, s.AlphaLo, s.AlphaHi)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label:   fmt.Sprintf("H=%d U=%g%% γ=%.2f·γmax", h, util*100, fraction),
			Full:    full.D,
			Ablated: fixed,
		})
	}

	// Heuristic α: eb(α) = 1.05·mean rate, found by bisection.
	target := 1.05 * s.Source.MeanRate()
	lo, hi := s.AlphaLo, s.AlphaHi
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		eb, err := s.Source.EffectiveBandwidth(mid)
		if err != nil {
			return nil, err
		}
		if eb < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	cfg, err := build(math.Sqrt(lo * hi))
	if err != nil {
		return nil, err
	}
	ablated := math.NaN()
	if r, err := core.DelayBound(cfg, s.Eps); err == nil {
		ablated = r.D
	}
	return append(rows, AblationRow{
		Label:   fmt.Sprintf("H=%d U=%g%% fixed α", h, util*100),
		Full:    full.D,
		Ablated: ablated,
	}), nil
}
