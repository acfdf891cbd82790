package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
//
// The steps share a grid floor too (gridFloor): a lower bound on each γ
// grid point's D, taken from the bracket end with the lower Δ, lets a
// step skip the grid points that cannot win and end as soon as its
// grid minimum settles the step. Every step decides as the full search
// would, and the result is bit-identical to a bisection over plain
// DelayBound calls.
func EDFProvisionedCtx(ctx context.Context, cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	if !(ratio > 0) || math.IsInf(ratio, 1) {
		return Result{}, 0, badConfig("deadline ratio must be positive and finite, got %g", ratio)
	}
	if err := checkEps(eps); err != nil {
		return Result{}, 0, err
	}
	sp := obs.SpanFromContext(ctx).Child("EDFProvisioned")
	defer sp.End()
	probeCtx := obs.WithoutSpan(ctx)

	// The whole solve shares one pooled Scratch; the path pricing table
	// is keyed on the traffic only, so every bisection step's DelayBound
	// (a different Delta0c) reuses the same priced envelope structure.
	s := getScratch()
	defer putScratch(s)
	fl := &s.floor
	fl.reset(cfg)
	bmuxCfg := cfg
	bmuxCfg.Delta0c = math.Inf(1)
	bmux, err := s.delayBound(probeCtx, bmuxCfg, eps, fl)
	if err != nil {
		return Result{}, 0, fmt.Errorf("core: EDF provisioning bracket: %w", err)
	}

	// Δ = d/H·(1 − ratio) falls with d when ratio > 1 and rises with it
	// otherwise, so the bracket end with the lower Δ — the one whose
	// searches may write the floor — is hi when ratio > 1 and lo
	// otherwise.
	floorAtHi := ratio > 1
	lo, hi := 0.0, bmux.D*(1+1e-9)
	iters := 0
	// Ensure the upper end brackets: g(hi) <= 0 must hold since f <= BMUX.
	for i := 0; i < 100; i++ {
		iters++
		mid := (lo + hi) / 2
		trial := cfg
		trial.Delta0c = mid / float64(cfg.H) * (1 - ratio)
		// A search whose grid minimum reaches mid ends there: then
		// f(mid) <= mid, and the step sets hi as the full search would.
		fl.stop = mid
		r, err := s.delayBound(probeCtx, trial, eps, fl)
		if err != nil {
			return Result{}, 0, fmt.Errorf("core: EDF provisioning at d=%g: %w", mid, err)
		}
		toHi := fl.decided || !(r.D > mid)
		if toHi {
			hi = mid
		} else {
			lo = mid
		}
		if toHi == floorAtHi {
			fl.commit()
		}
		if hi-lo <= 1e-9*hi {
			break
		}
	}
	fl.stop = math.NaN()
	if p := optProbe.Load(); p != nil {
		p.EDFBisections.Add(int64(iters))
		p.GammaSkips.Add(fl.skips)
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
	out, err := s.delayBound(obs.ContextWithSpan(ctx, sp), final, eps, fl)
	if err != nil {
		return Result{}, 0, err
	}
	out.Theta = append([]float64(nil), out.Theta...)
	sp.SetAttr("ratio", ratio)
	sp.SetAttr("bisections", iters)
	sp.SetAttr("D", out.D)
	return out, out.D / float64(cfg.H), nil
}

// gridFloor carries what the γ searches of one EDF fixed point learn
// about the γ grid (DESIGN.md §16, "Grid floors along the EDF bracket").
// For fixed traffic and γ the exact inner minimum is non-decreasing in
// Δ_{0,c}, σ(γ) and γmax do not change with a finite Δ_{0,c}, and the
// computed D lies within E of the exact one. So grid point i's D priced
// at the bracket end with the lower Δ, less 2E, bounds its D from below
// at every later step: lb[i]. A search skips point i when lb[i] exceeds
// the grid minimum so far, or equals it at a later point, since then i
// is not the grid's first minimum.
//
// Only a search at the Δ just assigned to the lower end commits its
// probes to lb, and only those it priced (cur where priced has bit i);
// a skipped point keeps its older bound, which holds from its own,
// lower, Δ on.
type gridFloor struct {
	lb, cur [gammaGridN + 1]float64 // by grid point 1..gammaGridN; lb is NaN where unknown
	priced  uint64                  // bit i: the running search priced point i into cur[i]
	first   int                     // the point the next search probes first: the last winner (0: none)
	stop    float64                 // the running search ends once its grid minimum is <= stop (NaN: never)
	decided bool                    // the running search ended at stop
	skips   int64                   // grid probes skipped (core_gamma_probes_skipped_total)

	// What commit needs of the traffic: H, C, ρ_c and the finite-Δ γmax
	// every search of the fixed point shares.
	h             int
	c, rhoc, gmax float64
}

// reset readies the floor for a new fixed point of cfg's traffic.
func (fl *gridFloor) reset(cfg PathConfig) {
	for i := range fl.lb {
		fl.lb[i] = math.NaN()
	}
	fl.first, fl.stop, fl.skips = 0, math.NaN(), 0
	fl.h, fl.c, fl.rhoc = cfg.H, cfg.C, cfg.Cross.Rho
	finite := cfg
	finite.Delta0c = 0
	fl.gmax = finite.GammaMax()
}

// begin starts a search and returns the grid point to probe first.
func (fl *gridFloor) begin() int {
	if fl == nil {
		return 0
	}
	fl.priced, fl.decided = 0, false
	return fl.first
}

// skip reports whether grid point i cannot be the first minimum of a
// grid whose minimum so far is bestD, first reached at point bestI. A
// NaN bound never skips.
func (fl *gridFloor) skip(i, bestI int, bestD float64) bool {
	if fl == nil {
		return false
	}
	if lb := fl.lb[i]; lb > bestD || lb == bestD && i > bestI {
		fl.skips++
		return true
	}
	return false
}

// note records the running search's D at grid point i.
func (fl *gridFloor) note(i int, d float64) {
	if fl != nil {
		fl.cur[i], fl.priced = d, fl.priced|1<<i
	}
}

// decides ends the running search when its grid minimum bestD, at
// point bestI, is at most stop.
func (fl *gridFloor) decides(bestI int, bestD float64) bool {
	if fl == nil || !(bestD <= fl.stop) {
		return false
	}
	fl.first, fl.decided = bestI, true
	return true
}

// end records the winner of a search that probed the whole grid.
func (fl *gridFloor) end(bestI int) {
	if fl != nil {
		fl.first = bestI
	}
}

// commit makes the running search's priced grid points the floor: the
// caller has just assigned its Δ to the bracket's lower-Δ end. A
// point's floor is its D less 2E, NaN where floorMargin vouches for
// none.
func (fl *gridFloor) commit() {
	for m := fl.priced; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		d := fl.cur[i]
		fl.lb[i] = d - floorMargin(fl.h, fl.c, fl.rhoc, gridGamma(fl.gmax, i), d)
	}
}

// floorMargin returns 2E for an inner minimum of d on h hops of
// capacity c with cross rate ρ_c at rate slack γ (DESIGN.md §16): the
// computed minimum lies within E of the exact one at every finite Δ, and
// the exact one is non-decreasing in Δ. E is 1e-12 + (1e-12 +
// (32h+64)·2⁻⁵³)·B with B = σ/(ch_h − β), the largest candidate
// breakpoint, which 2·d·ch_h/(ch_h − β) bounds, ch_h = c − (h−1)γ and
// β = ρ_c + γ rounded as innerSolve rounds them. Where that bound is
// not safe — d negative or not finite, or a last hop so near
// saturation that the rounding terms reach a quarter of B — it returns
// NaN.
func floorMargin(h int, c, rhoc, gamma, d float64) float64 {
	chh := c - float64(h-1)*gamma
	load := chh / (chh - (rhoc + gamma))
	k := float64(32*h+64) * 0x1p-53
	if !(d >= 0 && d <= math.MaxFloat64 && load >= 1 && load*k < 0.25) {
		return math.NaN()
	}
	return 1e-12 + (1e-12+k)*(2*load*d)
}
