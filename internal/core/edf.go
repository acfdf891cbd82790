package core

import (
	"context"
	"fmt"
	"math"

	"deltasched/internal/obs"
)

// EDFProvisioned computes the end-to-end delay bound under EDF scheduling
// with self-referential deadline provisioning, as used in the paper's
// examples: the per-node deadline of the through traffic is tied to the
// computed end-to-end bound,
//
//	d*_0 = D_e2e / H,   d*_c = ratio · d*_0,
//
// (Examples 1 and 3 use ratio = 10; Example 2 uses ratio = 2 and 1/2),
// which makes Δ_{0,c} = d*_0 − d*_c = d*_0·(1 − ratio) itself a function
// of the bound: D must solve the fixed-point equation D = f(D), where f
// evaluates the Δ-scheduler bound at the deadlines implied by D.
//
// The fixed point is found by bisection on g(D) = f(D) − D over
// (0, D_BMUX]: g(0+) = f(0) > 0 (at D→0 the deadlines collapse and f(0)
// is the FIFO bound), while at the blind-multiplexing bound — an upper
// bound for every Δ-scheduler — g(D_BMUX·(1+ε)) < 0 since f never exceeds
// D_BMUX. Bisection is robust at any utilization, unlike damped iteration,
// whose contraction factor degrades near saturation.
//
// It returns the converged result and the per-node deadline d*_0.
func EDFProvisioned(cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	return EDFProvisionedCtx(context.Background(), cfg, eps, ratio)
}

// EDFProvisionedCtx is EDFProvisioned under a context: a cancelled ctx
// stops the γ search of the DelayBound in progress and the solve returns
// ctx's error, and when ctx carries an active span the fixed-point solve
// appears as an "EDFProvisioned" span whose converged recomputation —
// and only it — is traced down to innerMinimize. The whole solve — the
// BMUX bracket, every bisection step, and the final recomputation —
// shares one Scratch, so its ~100 inner DelayBound sweeps reuse the same
// buffers instead of allocating fresh ones per step.
func EDFProvisionedCtx(ctx context.Context, cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	if ratio <= 0 || math.IsNaN(ratio) {
		return Result{}, 0, badConfig("deadline ratio must be positive, got %g", ratio)
	}
	sp := obs.SpanFromContext(ctx).Child("EDFProvisioned")
	defer sp.End()
	probeCtx := obs.WithoutSpan(ctx)

	// The whole solve shares one pooled Scratch; the path pricing table
	// is keyed on the traffic only, so every bisection step's DelayBound
	// (a different Delta0c) reuses the same priced envelope structure.
	s := getScratch()
	defer putScratch(s)
	bmuxCfg := cfg
	bmuxCfg.Delta0c = math.Inf(1)
	bmux, err := s.DelayBound(probeCtx, bmuxCfg, eps)
	if err != nil {
		return Result{}, 0, fmt.Errorf("core: EDF provisioning bracket: %w", err)
	}

	f := func(d float64) (float64, error) {
		trial := cfg
		trial.Delta0c = d / float64(cfg.H) * (1 - ratio)
		r, err := s.DelayBound(probeCtx, trial, eps)
		if err != nil {
			return 0, err
		}
		return r.D, nil
	}

	lo, hi := 0.0, bmux.D*(1+1e-9)
	iters := 0
	// Ensure the upper end brackets: g(hi) <= 0 must hold since f <= BMUX.
	for i := 0; i < 100; i++ {
		iters++
		mid := (lo + hi) / 2
		fm, err := f(mid)
		if err != nil {
			return Result{}, 0, fmt.Errorf("core: EDF provisioning at d=%g: %w", mid, err)
		}
		if fm > mid {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-9*hi {
			break
		}
	}
	if p := optProbe.Load(); p != nil {
		p.EDFBisections.Add(int64(iters))
	}
	if !(hi-lo <= 1e-6*hi) {
		return Result{}, 0, fmt.Errorf("%w: EDF fixed point still bracketed by [%g, %g] after 100 bisections",
			ErrNoConvergence, lo, hi)
	}
	d := hi

	// Recompute once at the converged deadline so the reported result is
	// self-consistent. The Theta of the shared scratch must be un-aliased:
	// the package-level contract hands the caller full ownership.
	final := cfg
	final.Delta0c = d / float64(cfg.H) * (1 - ratio)
	out, err := s.DelayBound(obs.ContextWithSpan(ctx, sp), final, eps)
	if err != nil {
		return Result{}, 0, err
	}
	out.Theta = append([]float64(nil), out.Theta...)
	sp.SetAttr("ratio", ratio)
	sp.SetAttr("bisections", iters)
	sp.SetAttr("D", out.D)
	return out, out.D / float64(cfg.H), nil
}
