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
// runs on one pooled Scratch, so its ~32 γ searches reuse the same
// buffers instead of allocating fresh ones per step.
func EDFProvisionedCtx(ctx context.Context, cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	s := getScratch()
	defer putScratch(s)
	out, d0, err := s.edfProvisioned(ctx, cfg, eps, ratio)
	out.Theta = append([]float64(nil), out.Theta...) // un-alias from the pooled scratch
	return out, d0, err
}

// edfProvisioned is EDFProvisionedCtx on s; see the Scratch ownership
// rules. The fixed point owns everything its searches share: one
// pricing table, built before the BMUX bracket, and s.fixed, reset here
// (fixedPoint). Its grid floor lets a step skip the grid points that
// cannot win and end as soon as its grid minimum settles the step, and
// its σ log replays σ. Every step decides as the full search would, and
// the result is bit-identical to a bisection over plain DelayBound
// calls.
func (s *Scratch) edfProvisioned(ctx context.Context, cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	if !(ratio > 0) || math.IsInf(ratio, 1) {
		return Result{}, 0, badConfig("deadline ratio must be positive and finite, got %g", ratio)
	}
	if err := checkEps(eps); err != nil {
		return Result{}, 0, err
	}
	bmuxCfg := cfg
	bmuxCfg.Delta0c = math.Inf(1)
	if err := bmuxCfg.Validate(); err != nil {
		return Result{}, 0, fmt.Errorf("core: EDF provisioning bracket: %w", err)
	}
	// An unstable load fails before the pricing table is built, with the
	// error the bracket's search would return.
	if _, err := stableGammaMax(bmuxCfg); err != nil {
		return Result{}, 0, fmt.Errorf("core: EDF provisioning bracket: %w", err)
	}
	sp := obs.SpanFromContext(ctx).Child("EDFProvisioned")
	defer sp.End()
	probeCtx := obs.WithoutSpan(ctx)

	// Every search below prices the same traffic at another Delta0c, so
	// one pricing table and one fixed-point state serve them all.
	defer s.flushOptStats()
	s.buildPricer(cfg)
	fp := &s.fixed
	fp.reset(cfg)
	bmux, err := s.delayBound(probeCtx, bmuxCfg, eps, fp)
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
		// One whose golden section an interval bound settles ends there,
		// on the side of mid the full search would reach.
		fp.stop = mid
		r, err := s.delayBound(probeCtx, trial, eps, fp)
		if err != nil {
			return Result{}, 0, fmt.Errorf("core: EDF provisioning at d=%g: %w", mid, err)
		}
		toHi := !(r.D > mid)
		if fp.decided != undecided {
			toHi = fp.decided == decidedHi
		}
		if toHi {
			hi = mid
		} else {
			lo = mid
		}
		if toHi == floorAtHi {
			fp.commit()
		}
		if hi-lo <= 1e-9*hi {
			break
		}
	}
	fp.stop = math.NaN()
	if p := optProbe.Load(); p != nil {
		p.EDFBisections.Add(int64(iters))
		p.GammaSkips.Add(fp.skips)
		p.IntervalDecisions.Add(fp.decisions)
	}
	if !(hi-lo <= 1e-6*hi) {
		return Result{}, 0, fmt.Errorf("%w: EDF fixed point still bracketed by [%g, %g] after 100 bisections",
			ErrNoConvergence, lo, hi)
	}
	d := hi

	// Recompute once at the converged deadline so the reported result is
	// self-consistent.
	final := cfg
	final.Delta0c = d / float64(cfg.H) * (1 - ratio)
	out, err := s.delayBound(obs.ContextWithSpan(ctx, sp), final, eps, fp)
	if err != nil {
		return Result{}, 0, err
	}
	sp.SetAttr("ratio", ratio)
	sp.SetAttr("bisections", iters)
	sp.SetAttr("D", out.D)
	return out, out.D / float64(cfg.H), nil
}

// sigmaLogSize is the number of probes one DelayBound γ search makes
// before its final full pricings: the grid, the two golden-section
// seeds and one probe per golden-section step but the last.
const sigmaLogSize = gammaGridN + 1 + delayBoundGoldenIters

// sigmaProbe is one slot of the σ log: the σ a probe priced at γ.
type sigmaProbe struct{ gamma, sigma float64 }

// fixedPoint is what the γ searches of one EDF fixed point pass on to
// each other, and the only state any search hands to the next. Every
// search of the fixed point prices the same traffic at the same ε, with
// a Δ_{0,c} that is never −∞, so σ(γ) and γmax are the same in all of
// them; only Δ moves.
//
// The σ log: log[n] holds the (γ, σ) of the last probe numbered n, and
// probe n replays it when it probes the same γ, bit for bit. reset
// empties it (γ = 0 is never probed). A grid probe's number is its grid
// index, so a probe the floor skips leaves its slot alone, and the
// golden section's probes keep theirs whatever the grid skipped.
//
// The grid floor (DESIGN.md §16, "Grid floors along the EDF bracket"):
// for fixed traffic and γ the exact inner minimum is non-decreasing in
// Δ_{0,c}, and the computed D lies within E of the exact one. So grid
// point i's D priced at the bracket end with the lower Δ, less 2E,
// bounds its D from below at every later step: lb[i]. A search skips
// point i when lb[i] exceeds the grid minimum so far, or equals it at a
// later point, since then i is not the grid's first minimum. Only a
// search at the Δ just assigned to the lower end commits its probes to
// lb, and only those it priced (cur where priced has bit i); a skipped
// point keeps its older bound, which holds from its own, lower, Δ on.
//
// The interval decision (DESIGN.md §16, "Interval bounds end the golden
// section"): a bisection step's search is ended, on the side of stop
// that its full result would reach, once an interval bound over its
// golden bracket settles that side (settle). loose paces the tries.
type fixedPoint struct {
	log [sigmaLogSize]sigmaProbe // by probe number; empty where gamma is 0

	lb, cur   [gammaGridN + 1]float64 // by grid point 1..gammaGridN; lb is NaN where unknown
	priced    uint64                  // bit i: the running search priced point i into cur[i]
	first     int                     // the point the next search probes first: the last winner (0: none)
	stop      float64                 // the running step's mid (NaN: the search is no bisection step)
	decided   int                     // how the running search ended early: undecided, decidedHi or decidedLo
	loose     [2]float64              // the lower and the upper bound's looseness at their last failed try
	skips     int64                   // grid probes skipped (core_gamma_probes_skipped_total)
	decisions int64                   // steps an interval bound settled (core_edf_interval_decisions_total)

	// What commit needs of the traffic: H, C, ρ_c and the finite-Δ γmax
	// every search of the fixed point shares.
	h             int
	c, rhoc, gmax float64
}

// reset readies the state for a new fixed point of cfg's traffic: an
// empty σ log and no floor.
func (fp *fixedPoint) reset(cfg PathConfig) {
	fp.log = [sigmaLogSize]sigmaProbe{}
	for i := range fp.lb {
		fp.lb[i] = math.NaN()
	}
	fp.first, fp.stop, fp.skips, fp.decisions = 0, math.NaN(), 0, 0
	fp.h, fp.c, fp.rhoc = cfg.H, cfg.C, cfg.Cross.Rho
	finite := cfg
	finite.Delta0c = 0
	fp.gmax = finite.GammaMax()
}

// loggedSigma returns the σ that probe n logged, and whether it was
// logged at gamma, bit for bit (a probed γ is positive or NaN, so ==
// never matches an empty slot or a NaN). Outside a fixed point
// (fp nil) nothing is logged, and no probe has a negative n.
func (fp *fixedPoint) loggedSigma(n int, gamma float64) (float64, bool) {
	if fp == nil || n < 0 {
		return 0, false
	}
	e := &fp.log[n]
	return e.sigma, e.gamma == gamma
}

// logSigma logs the σ that probe n priced at gamma.
func (fp *fixedPoint) logSigma(n int, gamma, sigma float64) {
	if fp != nil {
		fp.log[n] = sigmaProbe{gamma, sigma}
	}
}

// begin starts a search and returns the grid point to probe first.
func (fp *fixedPoint) begin() int {
	if fp == nil {
		return 0
	}
	fp.priced, fp.decided, fp.loose = 0, undecided, [2]float64{}
	return fp.first
}

// skip reports whether grid point i cannot be the first minimum of a
// grid whose minimum so far is bestD, first reached at point bestI. A
// NaN bound never skips.
func (fp *fixedPoint) skip(i, bestI int, bestD float64) bool {
	if fp == nil {
		return false
	}
	if lb := fp.lb[i]; lb > bestD || lb == bestD && i > bestI {
		fp.skips++
		return true
	}
	return false
}

// note records the running search's D at grid point i.
func (fp *fixedPoint) note(i int, d float64) {
	if fp != nil {
		fp.cur[i], fp.priced = d, fp.priced|1<<i
	}
}

// decides ends the running search when its grid minimum bestD, at
// point bestI, is at most stop.
func (fp *fixedPoint) decides(bestI int, bestD float64) bool {
	if fp == nil || !(bestD <= fp.stop) {
		return false
	}
	fp.first, fp.decided = bestI, decidedHi
	return true
}

// end records the winner of a search that probed the whole grid.
func (fp *fixedPoint) end(bestI int) {
	if fp != nil {
		fp.first = bestI
	}
}

// How a search of the fixed point ended early (fixedPoint.decided).
const (
	undecided = iota
	decidedHi // f(mid) <= mid: the step sets hi = mid
	decidedLo // f(mid) > mid: the step sets lo = mid
)

// bisecting reports whether the running search is a bisection step,
// whose golden section an interval bound may end.
func (fp *fixedPoint) bisecting() bool { return fp != nil && !math.IsNaN(fp.stop) }

// settled reports whether an interval bound ended the running search.
func (fp *fixedPoint) settled() bool { return fp != nil && fp.decided != undecided }

// settle decides the running bisection step when bound, the interval
// bound of the search's delay over the golden bracket [a, b] (whose end
// probes are na and nb, −1 where unprobed), lies on one side of mid =
// fp.stop: the search returns a delay at a γ inside every bracket of
// its golden section, or its grid minimum, which is above mid. So a
// lower bound above mid sends the step to lo, and an upper bound at
// most mid sends it to hi (then the search's delay beats its grid
// minimum). A NaN bound decides nothing.
//
// Each try costs an inner solve, so the lower bound is tried only when
// min(f1, f2), the least delay at the bracket's inner points, exceeds
// mid by more than the looseness its last failed try left (the inner
// point's delay less the bound), and the upper bound when max(f1, f2)
// lies below mid by more than its looseness. Both looseness values
// shrink by φ per golden-section step, as the bracket does; a NaN bound
// ends the tries of its kind for the search.
func (fp *fixedPoint) settle(a, b float64, na, nb int, f1, f2 float64,
	bound func(a, b float64, na, nb int, upper bool) float64) bool {
	const shrink = 0.6180339887498949
	mid := fp.stop
	if lo := math.Min(f1, f2); lo-mid > fp.loose[0] {
		lb := bound(a, b, na, nb, false)
		if lb > mid {
			fp.decided, fp.decisions = decidedLo, fp.decisions+1
			return true
		}
		fp.loose[0] = lo - lb
	}
	if hi := math.Max(f1, f2); mid-hi > fp.loose[1] {
		ub := bound(a, b, na, nb, true)
		if ub <= mid {
			fp.decided, fp.decisions = decidedHi, fp.decisions+1
			return true
		}
		fp.loose[1] = ub - hi
	}
	fp.loose[0] *= shrink
	fp.loose[1] *= shrink
	return false
}

// commit makes the running search's priced grid points the floor: the
// caller has just assigned its Δ to the bracket's lower-Δ end. A
// point's floor is its D less 2E, NaN where floorMargin vouches for
// none.
func (fp *fixedPoint) commit() {
	for m := fp.priced; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		d := fp.cur[i]
		fp.lb[i] = d - floorMargin(fp.h, fp.c, fp.rhoc, gridGamma(fp.gmax, i), d)
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

// intervalBound bounds the delay that cfg's search computes at every γ
// in [a, b] (DESIGN.md §16, "Interval bounds end the golden section"):
// with upper false from below, by the inner solve at a's rates and
// b's σ less 2δσ, and otherwise from above, by the solve at b's rates
// and a's σ plus 2δσ, each widened by floorMargin at b. σ at the end it
// reads is replayed from fp's σ log, which holds every probe of the
// running search (na and nb number the ends' probes), or priced where
// the end was never probed. It returns NaN where the margins cannot
// vouch for the bound.
func (s *Scratch) intervalBound(cfg PathConfig, eps float64, fp *fixedPoint, a, b float64, na, nb int, upper bool) float64 {
	end, n := b, nb
	if upper {
		end, n = a, na
	}
	sigma, ok := fp.loggedSigma(n, end)
	if !ok {
		sigma = s.pathBound(cfg, end).SigmaFor(eps)
	}
	ds := 2 * sigmaSlack(cfg.H, cfg.Through.Alpha, cfg.Cross.Alpha, a, sigma)
	rates := a
	if upper {
		rates, sigma = b, math.Nextafter(sigma+ds, math.Inf(1))
	} else {
		sigma = math.Max(0, math.Nextafter(sigma-ds, math.Inf(-1)))
	}
	d, _ := s.innerSolve(cfg.H, cfg.C, rates, cfg.Cross.Rho, cfg.Delta0c, sigma)
	m := floorMargin(cfg.H, cfg.C, cfg.Cross.Rho, b, d)
	if upper {
		return d + m
	}
	return d - m
}

// alphaFloor bounds from below the D that DelayBound computes for cfg at
// eps, and the D that EDFProvisioned computes for cfg's traffic at eps
// and any deadline ratio (DESIGN.md §16, "Floors across the α grid"). It
// holds at every Δ_{0,c} that prices σ and γmax as cfg's does: every
// Δ > −∞ when cfg's is, which covers every search of an EDF fixed
// point. Hop H's constraint gives D >= σ/ch_H at every γ, as its β term
// is a positive part, and σ and ch_H fall as γ grows. Each search prices
// its D at a γ in [γmax·1e-9, γmax·(1−1e-9)], which its grid points cut
// into 49 intervals [a, b]; over one, D is at least (σ(b) − 2δσ)/ch_H(a),
// rounded down, less the downward margin floorMargin at b, and the floor
// is the least of the 49. It returns −Inf where no margin vouches for a
// bound: an invalid or unstable cfg, a bad eps, or a NaN margin.
func (s *Scratch) alphaFloor(cfg PathConfig, eps float64) float64 {
	gmax := cfg.GammaMax()
	if cfg.Validate() != nil || checkEps(eps) != nil || !(gmax > 0) {
		return math.Inf(-1)
	}
	defer s.flushOptStats()
	s.buildPricer(cfg)
	floor := math.Inf(1)
	a := gmax * 1e-9
	for i := 1; i <= gammaGridN+1; i++ {
		b := gmax * (1 - 1e-9)
		if i <= gammaGridN {
			b = gridGamma(gmax, i)
		}
		sigma := s.pathBound(cfg, b).SigmaFor(eps)
		ds := 2 * sigmaSlack(cfg.H, cfg.Through.Alpha, cfg.Cross.Alpha, a, sigma)
		sigma = math.Max(0, math.Nextafter(sigma-ds, math.Inf(-1)))
		// ch_H at a, formed as innerSolve forms it, is the largest ch_H
		// of the interval; rounding the quotient toward 0 keeps it low.
		d := math.Nextafter(sigma/(cfg.C-float64(cfg.H-1)*a), 0)
		m := floorMargin(cfg.H, cfg.C, cfg.Cross.Rho, b, d)
		if math.IsNaN(m) {
			return math.Inf(-1)
		}
		floor = math.Min(floor, d-m)
		a = b
	}
	return floor
}

// sigmaSlack returns δσ, a bound on how far the σ that pathBound and
// SigmaFor compute on h hops at any γ >= a lies from the exact value
// of their expression, given the computed σ at the end that bounds it
// (DESIGN.md §16): 2u·[(5 + 2/(α_t·a))/α_t + (2h−1)(5 + 2/(α_c·a))/α_c
// + 3w + (h+6)σ], with u = 2⁻⁵³ and w = 1/α_t + h/α_c. A tiny α·a makes
// it large or infinite, which only loosens the bound.
func sigmaSlack(h int, alphaT, alphaC, a, sigma float64) float64 {
	w := 1/alphaT + float64(h)/alphaC
	t := (5+2/(alphaT*a))/alphaT + float64(2*h-1)*(5+2/(alphaC*a))/alphaC + 3*w + float64(h+6)*sigma
	return 0x1p-52 * t
}
