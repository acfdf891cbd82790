package core

import (
	"context"
	"fmt"
	"math"

	"deltasched/internal/envelope"
	"deltasched/internal/obs"
)

// PathConfig describes the homogeneous multi-node network of the paper's
// Fig. 1 in discrete time: a through-traffic aggregate crossing H
// identical nodes of capacity C, with an independent-but-identically-
// parameterized cross-traffic aggregate joining at every node, all nodes
// running the same Δ-scheduler summarized by the single constant
// Δ_{0,c} (through vs. cross precedence):
//
//	Δ_{0,c} = 0    FIFO
//	Δ_{0,c} = +∞   blind multiplexing (through has lowest priority)
//	Δ_{0,c} = −∞   strict priority for the through traffic
//	Δ_{0,c} = d*_0 − d*_c   EDF with per-node deadlines d*_0, d*_c
type PathConfig struct {
	H       int          // path length (number of nodes), H >= 1
	C       float64      // per-node capacity (data units per slot)
	Through envelope.EBB // through aggregate: A ∼ (M, ρ, α)
	Cross   envelope.EBB // per-node cross aggregate: A_c^h ∼ (M_c, ρ_c, α_c)
	Delta0c float64      // scheduler constant Δ_{0,c} (may be ±Inf)
}

// Result carries a computed probabilistic end-to-end delay bound and the
// optimizer's internals, useful for diagnostics and for the paper's
// discussion of how θ^h behave across schedulers.
type Result struct {
	D     float64           // delay bound in slots: P(W > D) <= eps
	Sigma float64           // backlog budget σ solved from the bounding function
	Gamma float64           // rate slack chosen by the outer optimization
	X     float64           // optimal X = d − Σθ^h
	Theta []float64         // optimal θ^1..θ^H
	Bound envelope.ExpBound // combined bounding function ε(σ)
}

// Validate checks the configuration.
func (cfg PathConfig) Validate() error {
	if cfg.H < 1 {
		return badConfig("path length H must be >= 1, got %d", cfg.H)
	}
	if !(cfg.C > 0) || math.IsInf(cfg.C, 1) {
		return badConfig("capacity must be positive and finite, got %g", cfg.C)
	}
	if err := cfg.Through.Validate(); err != nil {
		return fmt.Errorf("%w: through traffic: %w", ErrBadConfig, err)
	}
	if err := cfg.Cross.Validate(); err != nil {
		return fmt.Errorf("%w: cross traffic: %w", ErrBadConfig, err)
	}
	if math.IsNaN(cfg.Delta0c) {
		return badConfig("Delta0c is NaN")
	}
	return nil
}

// GammaMax returns the stability limit on the rate slack (Eq. 32): the
// last hop must serve the through traffic faster than its sample-path
// rate, C − (H−1)γ − (ρ_c+γ) > ρ + γ, i.e. (H+1)·γ < C − ρ_c − ρ. Under
// strict priority for the through traffic (Δ_{0,c} = −∞) Theorem 1 drops
// the cross traffic, and the condition C − (H−1)γ > ρ + γ reads
// H·γ < C − ρ.
func (cfg PathConfig) GammaMax() float64 {
	if math.IsInf(cfg.Delta0c, -1) {
		return (cfg.C - cfg.Through.Rho) / float64(cfg.H)
	}
	return (cfg.C - cfg.Cross.Rho - cfg.Through.Rho) / float64(cfg.H+1)
}

// Scratch carries the reusable buffers of the analytic hot path: the
// candidate and θ vectors of the inner optimization and the per-node
// bound list of the path assembly. Reusing one Scratch across calls
// makes steady-state γ-sweeps allocation-free — the property the
// optimizer benchmarks pin (see internal/core/alloc_test.go and
// DESIGN.md's Performance section).
//
// Ownership rules: a Scratch is NOT safe for concurrent use, and the
// Theta slice of a Result returned by a Scratch method aliases the
// scratch buffer — it is valid only until the next call on the same
// Scratch. Clone Theta to retain it, or use the package-level
// DelayBound/DelayBoundAtGamma, which run on a fresh Scratch per call
// and therefore hand the caller full ownership (and stay safe to call
// from concurrent sweep workers).
type Scratch struct {
	cands  []float64
	thetas []float64

	// kern is the γ-independent envelope pricing table (see batch.go):
	// built once per (H, through, cross) and reused by every γ probe,
	// including across the Delta0c variations of an EDF fixed-point
	// solve, together with the σ log those solves replay.
	kern pathKernel

	// SoA tables of the inner solve, sized h: per-hop service rates
	// ch_i = C − (i−1)γ and the closed-form ratios σ/ch_i, ch_i − β,
	// σ/(ch_i − β) that every candidate breakpoint sweeps, and each
	// candidate's generating hop, where its sweep starts.
	chs, soch, chmb, socmb []float64
	hints                  []int32

	// sums backs the screen's tables (see screen): prefix sums of the
	// regime's θ ratio table and of 1/ch_i, sized h+1 each, followed by
	// one lower bound per candidate (at most 3h+1).
	sums []float64

	// floor is the grid floor of the EDF fixed point running on this
	// Scratch (edf.go); reset by each EDFProvisioned solve.
	floor gridFloor

	// addTab holds the buffers of the additive analysis' per-node decay
	// chain and pair-merge tables, rebuilt by every AdditiveBound call
	// (see additive.go).
	addTab addTable

	// stats are plain-integer introspection counts, batch-flushed to the
	// installed OptProbe once per top-level solve (see introspect.go).
	stats optStats
}

// DelayBound computes the probabilistic end-to-end delay bound
// P(W > d) <= eps for the given path, numerically optimizing the free
// rate-slack parameter γ as prescribed in Section IV. The EBB decay α is
// part of the traffic description; callers that derive the EBB from an
// effective bandwidth (MMOO sources) should additionally sweep α via
// OptimizeAlpha.
func DelayBound(cfg PathConfig, eps float64) (Result, error) {
	return DelayBoundCtx(context.Background(), cfg, eps)
}

// DelayBoundCtx is DelayBound under a context: a cancelled ctx stops
// the γ search at its next probe and returns ctx's error, and when ctx
// carries an active span (obs.StartSpan) the solve appears as a
// "DelayBound" span whose winning γ evaluation is traced down to
// innerMinimize.
func DelayBoundCtx(ctx context.Context, cfg PathConfig, eps float64) (Result, error) {
	s := getScratch()
	defer putScratch(s)
	r, err := s.DelayBound(ctx, cfg, eps)
	r.Theta = append([]float64(nil), r.Theta...) // un-alias from the pooled scratch
	return r, err
}

// DelayBound is the scratch-reusing form of the package-level
// DelayBoundCtx; see the Scratch ownership rules.
func (s *Scratch) DelayBound(ctx context.Context, cfg PathConfig, eps float64) (Result, error) {
	return s.delayBound(ctx, cfg, eps, nil)
}

// delayBound is Scratch.DelayBound with the EDF fixed point's grid floor
// (edf.go), or nil for the plain search. A floor may skip grid probes it
// proves cannot win and may end the search early; a search it ended
// returns a zero Result with fl.decided set.
func (s *Scratch) delayBound(ctx context.Context, cfg PathConfig, eps float64, fl *gridFloor) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := checkEps(eps); err != nil {
		return Result{}, err
	}
	gmax := cfg.GammaMax()
	if gmax <= 0 {
		return Result{}, fmt.Errorf("%w: rho=%g, rho_c=%g, C=%g", ErrUnstable, cfg.Through.Rho, cfg.Cross.Rho, cfg.C)
	}
	s.stats.delayBoundCalls++
	defer s.flushOptStats()
	sp := obs.SpanFromContext(ctx).Child("DelayBound")
	defer sp.End()

	// The search's 110 probes go through the D-only table-driven kernel
	// (batch.go) and are not traced; only the winning γ is priced in
	// full, with θ, under the span. Probe n replays the σ that the last
	// probe numbered n logged when both probed the same γ.
	res, err := gammaSearch(ctx, gmax, gmax/(gammaGridN+1), delayBoundGoldenIters, fl,
		func(n int, g float64) float64 { return s.dOnlyAtGamma(cfg, eps, n, g) },
		func(g float64) (Result, float64, error) {
			r, err := s.delayBoundAtGamma(sp, cfg, eps, g)
			return r, r.D, err
		})
	if err == nil && sp != nil { // guard: boxing the attr values would allocate on the untraced path
		sp.SetAttr("gamma", res.Gamma)
		sp.SetAttr("D", res.D)
	}
	return res, err
}

// DelayBoundAtGamma computes the delay bound for a fixed rate slack γ.
func DelayBoundAtGamma(cfg PathConfig, eps, gamma float64) (Result, error) {
	s := getScratch()
	defer putScratch(s)
	r, err := s.DelayBoundAtGamma(cfg, eps, gamma)
	r.Theta = append([]float64(nil), r.Theta...) // un-alias from the pooled scratch
	return r, err
}

// DelayBoundAtGamma is the scratch-reusing form of the package-level
// DelayBoundAtGamma; see the Scratch ownership rules. At steady state
// (buffers warmed up) it performs no heap allocations.
func (s *Scratch) DelayBoundAtGamma(cfg PathConfig, eps, gamma float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := checkEps(eps); err != nil {
		return Result{}, err
	}
	defer s.flushOptStats()
	return s.delayBoundAtGamma(nil, cfg, eps, gamma)
}

// delayBoundAtGamma is DelayBoundAtGamma after configuration validation:
// the γ search of DelayBound validates once at entry and prices its
// winner through here, traced as a child of parent (nil: untraced).
func (s *Scratch) delayBoundAtGamma(parent *obs.Span, cfg PathConfig, eps, gamma float64) (Result, error) {
	s.stats.gammaProbes++
	s.stats.gammaBatchProbes++ // pathBound prices through the per-config table
	if gamma <= 0 || gamma >= cfg.GammaMax() {
		return Result{}, badConfig("gamma %g outside (0, %g)", gamma, cfg.GammaMax())
	}
	sp := parent.Child("delayBoundAtGamma")
	bound := s.pathBound(cfg, gamma)
	sigma := bound.SigmaFor(eps)
	isp := sp.Child("innerMinimize")
	d, x := s.innerMinimize(cfg.H, cfg.C, gamma, cfg.Cross.Rho, cfg.Delta0c, sigma)
	isp.End()
	if sp != nil { // guard: boxing the attr values would allocate on the untraced path
		sp.SetAttr("gamma", gamma)
		sp.SetAttr("D", d)
		sp.End()
	}
	return Result{D: d, Sigma: sigma, Gamma: gamma, X: x, Theta: s.thetas, Bound: bound}, nil
}

// pathBound assembles the end-to-end bounding function: the network
// service curve bound ε_net of Eq. (31) — one per-node service bound per
// hop, the first H−1 of which pay the convolution's union-bound factor
// 1/(1−e^{−αγ}) — combined with the through traffic's sample-path envelope
// bound via Eq. (33). For H=1 and the homogeneous M=M_c=1 case this
// reproduces the paper's closed form Eq. (34), which the tests verify.
//
// The assembly is table-driven: the γ-independent merge structure lives
// in the Scratch's envelope.PathPricer (built once per configuration by
// ensurePricer), and each probe pays only the γ-dependent exponentials.
// The pricer replays the list-and-Merge arithmetic expression for
// expression, so results are bit-identical to materializing the segment
// slice and calling envelope.Merge — pinned by batch_test.go's
// reference-implementation parity tests.
//
// When the cross traffic never precedes the through flow (Δ_{0,c} = −∞,
// strict priority), Theorem 1 removes it from N_{−j}: the per-node service
// guarantee is deterministic and only the through envelope's bound is
// paid.
func (s *Scratch) pathBound(cfg PathConfig, gamma float64) envelope.ExpBound {
	p := s.ensurePricer(cfg)
	if math.IsInf(cfg.Delta0c, -1) {
		s.stats.envSegs++
		return p.ThroughBoundAt(gamma)
	}
	// Node H enters plainly; nodes 1..H−1 carry the extra union-bound sum
	// Σ_{j>=0} ε(σ + jγ) = ε(σ)/(1−e^{−αγ}) from the convolution theorem.
	s.stats.envSegs += int64(p.Segments())
	return p.BoundAt(gamma)
}

// innerMinimize solves the optimization problem of Eq. (38) on a fresh
// Scratch, returning a caller-owned θ vector. Hot loops use the Scratch
// method directly.
func innerMinimize(h int, c, gamma, rhoc, delta, sigma float64) (d, xOpt float64, thetas []float64) {
	var s Scratch
	d, xOpt = s.innerMinimize(h, c, gamma, rhoc, delta, sigma)
	return d, xOpt, s.thetas
}

// innerMinimize solves the optimization problem of Eq. (38):
//
//	minimize  d = X + Σ_h θ^h
//	s.t.      (C−(h−1)γ)(X+θ^h) − (ρ_c+γ)[X + Δ_{0,c}(θ^h)]_+ >= σ  ∀h,
//	          X, θ^1..θ^H >= 0,
//
// exactly: each θ^h(X) is piecewise linear in X with closed-form pieces,
// so d(X) is piecewise linear and its minimum sits on a breakpoint, all of
// which are enumerated. Returns the optimal d and X; the optimal θ^1..θ^H
// are left in s.thetas.
func (s *Scratch) innerMinimize(h int, c, gamma, rhoc, delta, sigma float64) (d, xOpt float64) {
	d, xOpt = s.innerSolve(h, c, gamma, rhoc, delta, sigma)
	beta := rhoc + gamma
	if cap(s.thetas) < h {
		s.thetas = make([]float64, h)
	} else {
		s.thetas = s.thetas[:h]
	}
	// innerSolve leaves the per-hop rate table in s.chs; chs[i−1] is the
	// same float64 as c − (i−1)γ recomputed.
	for i := 1; i <= h; i++ {
		s.thetas[i-1] = thetaAt(s.chs[i-1], beta, delta, sigma, xOpt)
	}
	return d, xOpt
}

// growTo returns buf resized to n valid entries, reusing its backing
// array when large enough.
func growTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// innerSolve is innerMinimize without the θ-vector fill: the candidate
// enumeration, the candidate screen (screen.go) and the breakpoint sweep
// over the Scratch's SoA tables. The γ sweeps run ~100 of these per
// DelayBound and never read θ, so the fill is paid only by the winning
// evaluation (innerMinimize).
//
// The evaluation loop is a regime-specialized replay of thetaAt over
// precomputed per-hop tables: same expressions, same operand order, same
// summation sequence, so d and xOpt are bit-identical to calling thetaAt
// per hop (pinned by batch_test.go against a verbatim copy of the old
// loop). Inputs the closed forms are not safe for — NaN parameters,
// non-positive service rates, infinite σ, a θ ratio σ/ch that overflows
// — return NaN. PathConfig.Validate with γ in (0, γmax) keeps every
// leftover rate positive, so a validated configuration reaches only the
// overflow, at a capacity near the float64 floor (C = 1e-300), where NaN
// marks the γ probe infeasible; PaperRecipe rejects the others at its
// entry.
func (s *Scratch) innerSolve(h int, c, gamma, rhoc, delta, sigma float64) (d, xOpt float64) {
	s.stats.innerCalls++
	beta := rhoc + gamma // rate of the cross sample-path envelope

	// Per-hop service rates ch_i = C − (i−1)γ. float64(i) below ranges
	// 0..h−1, matching the 1-based formula's (i−1).
	s.chs = growTo(s.chs, h)
	chs := s.chs
	for i := 0; i < h; i++ {
		chs[i] = c - float64(i)*gamma
	}

	// The specialized sweeps assume every θ term evaluates finite and
	// non-negative: positive service rates (net of β where the regime
	// divides by ch−β), finite non-negative σ and β. Anything else is
	// outside the solver's domain.
	spCase := math.IsInf(delta, -1)
	fast := !math.IsNaN(delta) &&
		sigma >= 0 && !math.IsInf(sigma, 1) &&
		beta >= 0 && !math.IsInf(beta, 1) &&
		gamma > 0 && !math.IsInf(c, 1) &&
		chs[h-1] > 0
	if fast && !spCase {
		fast = chs[h-1]-beta > 0
	}
	if !fast {
		return math.NaN(), math.NaN()
	}

	// SoA ratio tables per Δ regime. soch[i] = σ/ch_i is the β-free
	// θ intercept; chmb[i] = ch_i − β and socmb[i] = σ/(ch_i − β) are the
	// pre-saturation pieces of the Δ >= 0 regime. The screen's prefix
	// sums of the regime's ratio table, pre[i] = Σ_{j<i} ratio_j, are
	// summed alongside (see screen).
	s.sums = growTo(s.sums, 5*h+3)
	pre := s.sums[: h+1 : h+1]
	pre[0] = 0
	sum := 0.0 // the running sum in a register, not reloaded from pre
	switch {
	case spCase:
		s.soch = growTo(s.soch, h)
		for i := 0; i < h; i++ {
			r := sigma / chs[i]
			s.soch[i] = r
			sum += r
			pre[i+1] = sum
		}
	case delta <= 0:
		s.soch = growTo(s.soch, h)
		s.chmb = growTo(s.chmb, h)
		for i := 0; i < h; i++ {
			r := sigma / chs[i]
			s.soch[i] = r
			s.chmb[i] = chs[i] - beta
			sum += r
			pre[i+1] = sum
		}
	default:
		s.chmb = growTo(s.chmb, h)
		s.socmb = growTo(s.socmb, h)
		for i := 0; i < h; i++ {
			cmb := chs[i] - beta
			r := sigma / cmb
			s.chmb[i] = cmb
			s.socmb[i] = r
			sum += r
			pre[i+1] = sum
		}
	}
	// A θ ratio that overflows leaves the domain too: the breakpoints
	// and θ terms built on it go infinite, where the closed forms meet
	// Inf − Inf. ch_i and ch_i − β fall with i, so a table's largest
	// ratio is its last, and one test per solve covers every hop.
	ratios := s.soch
	if delta > 0 {
		ratios = s.socmb
	}
	if math.IsInf(ratios[h-1], 1) {
		return math.NaN(), math.NaN()
	}

	// Candidate breakpoints of d(X), enumerated from the tables in the
	// same order (and with the same arithmetic) as the formula-per-hop
	// enumeration. hints[k] is the hop whose closed form produced
	// cands[k] (0 for X = 0); the sweep starts that candidate's
	// inactive-prefix screen there.
	cands := append(s.cands[:0], 0)
	hints := append(s.hints[:0], 0)
	switch {
	case spCase:
		for i := 0; i < h; i++ {
			cands = append(cands, s.soch[i])
			hints = append(hints, int32(i))
		}
	case delta <= 0:
		md := -delta
		numB := sigma + beta*delta
		for i := 0; i < h; i++ {
			if x := s.soch[i]; x <= md {
				cands = append(cands, x)
				hints = append(hints, int32(i))
			}
			if x := numB / s.chmb[i]; x >= md {
				cands = append(cands, x)
				hints = append(hints, int32(i))
			}
			cands = append(cands, md)
			hints = append(hints, int32(i))
		}
	default: // delta >= 0, possibly +Inf
		finite := !math.IsInf(delta, 1)
		for i := 0; i < h; i++ {
			cands = append(cands, s.socmb[i])
			hints = append(hints, int32(i))
			if finite {
				if x := s.socmb[i] - delta; x > 0 {
					cands = append(cands, x)
					hints = append(hints, int32(i))
				}
			}
		}
	}
	s.cands, s.hints = cands, hints
	s.stats.innerCands += int64(len(cands))
	cands, hints = s.screen(h, beta, delta, sigma)
	s.stats.innerReplays += int64(len(cands))

	// Breakpoint sweep over the screen's survivors. Two value slots
	// memoize the systematically repeated candidates — X = 0 and X = −Δ
	// (appended once per hop) — so each distinct breakpoint is priced
	// once. d(X) is a pure function of X given the tables, so replaying
	// a slot is exact.
	//
	// Each regime's hops whose θ term is zero form a prefix, and the
	// sweep skips it: it starts at the candidate's hint, walks left while
	// hop i−1 is active and right while hop i is inactive. Every screen
	// predicate is monotone in i — ch_i = C − float64(i)·γ is
	// non-increasing under monotone rounding and X >= 0 — so the walk
	// stops at the hop a scan from 0 stops at, and the sum adds the same
	// terms in the same order (DESIGN.md §16, "Hop hints").
	//
	// The θ-sum loops carry an early bail: once the partial sum exceeds
	// bailAt := best + 5e-12·(1+best), the candidate can neither win nor
	// tie and its remaining hops are skipped. Soundness: partials are
	// non-decreasing up to ~1e-13 relative rounding (the Δ >= 0 regime
	// adds unguarded saturation terms that can round a hair below zero),
	// so the final total T satisfies T > best·(1+4e-12) + 4e-12, which
	// puts T strictly above the adoption switch's best + 1e-12·(1+|T|)
	// tie threshold — the 5e-12 margin dominates both the 1e-12
	// tolerance and every rounding slack. The same threshold pre-gates
	// the adoption switch, so losing candidates pay one compare instead
	// of the Abs/tol arithmetic.
	best, bailAt := math.Inf(1), math.Inf(1)
	soch, chmb, socmb := s.soch, s.chmb, s.socmb
	var zeroTot, mdTot float64
	zeroSet, mdSet := false, false
	md := -delta // +Inf under strict priority; only consulted when delta <= 0
	for k, x := range cands {
		if x < 0 {
			continue // fast-path tables are NaN-free, so x < 0 is the only skip
		}
		var total float64
		switch {
		case zeroSet && x == 0:
			total = zeroTot
		case mdSet && x == md:
			total = mdTot
		default:
			total = x
			bailed := false
			i := int(hints[k])
			switch {
			case delta <= 0 && x <= md: // strict priority always lands here
				// θ^i = σ/ch_i − X where positive: hops with
				// σ/ch_i − X <= 0 form the prefix.
				for i > 0 && soch[i-1]-x > 0 {
					i--
				}
				for i < h && !(soch[i]-x > 0) {
					i++
				}
				for ; i < h; i++ {
					if v := soch[i] - x; v > 0 {
						total += v
					}
				}
			case delta <= 0:
				num := sigma + beta*(x+delta)
				// Active hops form a suffix: num/chs[i] grows as chs[i]
				// falls. The prefix screen is a multiply —
				// x·chs[i] >= num·(1+1e-15) guarantees the exact test
				// num/chs[i] − x > 0 fails, the margin absorbing both
				// roundings — and the division runs only from the first
				// ambiguous hop, where the exact test still decides.
				numHi := num * (1 + 1e-15)
				for i > 0 && !(x*chs[i-1] >= numHi) {
					i--
				}
				for i < h && x*chs[i] >= numHi {
					i++
				}
				for ; i < h; i++ {
					if v := num/chs[i] - x; v > 0 {
						total += v
						if total > bailAt {
							bailed = true
							break
						}
					}
				}
			default:
				// θ^i(X) by phase, exploiting monotonicity in i: the
				// inactive hops ((ch−β)X >= σ) form a prefix, the
				// saturated hops (θ_A > Δ) a suffix, with the linear
				// θ_A = σ/(ch−β) − X region in between. Each phase adds
				// exactly the term thetaAt would return for that hop.
				for i > 0 && !(chmb[i-1]*x >= sigma) {
					i--
				}
				for i < h && chmb[i]*x >= sigma {
					i++
				}
				sat := false
				for ; i < h; i++ {
					thetaA := socmb[i] - x
					if thetaA > delta {
						sat = true
						break
					}
					total += thetaA
					if total > bailAt {
						bailed = true
						break
					}
				}
				if sat {
					num := sigma + beta*(x+delta)
					for ; i < h; i++ {
						total += num/chs[i] - x
						if total > bailAt {
							bailed = true
							break
						}
					}
				}
			}
			if bailed {
				continue // cannot beat best, cannot tie: no dedup slot either
			}
			if x == 0 {
				zeroTot, zeroSet = total, true
			} else if x == md {
				mdTot, mdSet = total, true
			}
		}
		if total > bailAt {
			continue // dedup replays and bail-free sums above the tie band
		}
		// Ties (d is constant along plateaus, e.g. for BMUX) break toward
		// the larger X, which deactivates θ terms and matches the paper's
		// canonical solutions (θ = 0 for blind multiplexing, Eq. 43).
		switch tol := 1e-12 * (1 + math.Abs(total)); {
		case math.IsInf(best, 1):
			best, xOpt = total, x
			bailAt = best + 5e-12*(1+best)
		case total < best-tol:
			best, xOpt = total, x
			bailAt = best + 5e-12*(1+best)
		case total <= best+tol && x > xOpt:
			xOpt = x
		}
	}
	return best, xOpt
}

// thetaAt returns θ^h(X): the smallest θ >= 0 with
// ch·(X+θ) − β·[X + min(Δ,θ)]_+ >= σ.
func thetaAt(ch, beta, delta, sigma, x float64) float64 {
	switch {
	case math.IsInf(delta, -1):
		// Cross traffic never precedes: the β term vanishes.
		return math.Max(0, sigma/ch-x)
	case delta <= 0:
		// min(Δ, θ) = Δ for every θ >= 0.
		if x <= -delta {
			return math.Max(0, sigma/ch-x)
		}
		return math.Max(0, (sigma+beta*(x+delta))/ch-x)
	default:
		// Δ >= 0 (possibly +∞): for θ <= Δ the constraint reads
		// (ch−β)(X+θ) >= σ; beyond Δ the cross term saturates.
		if (ch-beta)*x >= sigma {
			return 0
		}
		thetaA := sigma/(ch-beta) - x
		if thetaA <= delta {
			return thetaA
		}
		return (sigma+beta*(x+delta))/ch - x
	}
}

// BMUXClosedForm is the paper's Eq. (43): for blind multiplexing the
// optimal point is θ=0, X = σ/(C − ρ_c − Hγ). Used as an oracle for the
// generic solver.
func BMUXClosedForm(h int, c, gamma, rhoc, sigma float64) float64 {
	return sigma / (c - rhoc - float64(h)*gamma)
}

// FIFOClosedForm is the paper's Eq. (44): with Δ=0 the constraints are
// linear and, for K >= 1, X = σ/(C−ρ_c−Kγ) and
//
//	d(σ) = σ/(C−ρ_c−Kγ) · ( 1 + Σ_{h>K} (h−K)γ / (C−(h−1)γ) );
//
// for K = 0 the paper sets X = 0, where every θ^h = σ/(C−(h−1)γ) is
// active. K is the smallest index satisfying Eq. (40); this helper scans
// all K and returns the best value, serving as an independent oracle for
// the generic solver.
func FIFOClosedForm(h int, c, gamma, rhoc, sigma float64) float64 {
	best := math.Inf(1)
	for k := 0; k <= h; k++ {
		x := 0.0
		if k >= 1 {
			x = sigma / (c - rhoc - float64(k)*gamma)
		}
		d := x
		for i := k + 1; i <= h; i++ {
			ch := c - float64(i-1)*gamma
			d += math.Max(0, (sigma-(c-rhoc-float64(i)*gamma)*x)/ch)
		}
		if d < best {
			best = d
		}
	}
	return best
}

// PaperRecipe implements the paper's explicit K-selection procedure
// (Eqs. 40–42) for general Δ. The paper notes the choice is near-optimal
// rather than optimal; tests compare it against the exact solver. Inputs
// outside the analysis' domain — h < 1, a non-positive or infinite C,
// γ <= 0, ρ_c < 0, a NaN Δ, a negative or non-finite σ, or an unstable
// point C − ρ_c − Hγ <= 0 — return NaN.
func PaperRecipe(h int, c, gamma, rhoc, delta, sigma float64) float64 {
	beta := rhoc + gamma
	// The last hop's leftover rate is formed as innerSolve forms it, so
	// every input that passes here meets the exact solver's entry
	// conditions; only a θ ratio that overflows still leaves its domain.
	if h < 1 || !(c > 0) || math.IsInf(c, 1) || !(gamma > 0) || !(rhoc >= 0) ||
		math.IsNaN(delta) || !(sigma >= 0) || math.IsInf(sigma, 1) ||
		!(c-float64(h-1)*gamma-beta > 0) {
		return math.NaN()
	}
	condition := func(k int) bool { // Eq. (40)
		sum := 0.0
		for i := k + 1; i <= h; i++ {
			sum += (c - rhoc - float64(i)*gamma) / (c - float64(i-1)*gamma)
		}
		return sum < 1
	}
	for k := 0; k <= h; k++ {
		if !condition(k) {
			continue
		}
		var x float64
		switch {
		case delta >= 0:
			if k == 0 {
				x = 0
			} else {
				x = sigma / (c - rhoc - float64(k)*gamma)
			}
			// Require θ^h(X) > Δ for all h > K when Δ >= 0 (finite).
			if !math.IsInf(delta, 1) && delta > 0 {
				ok := true
				for i := k + 1; i <= h; i++ {
					if thetaAt(c-float64(i-1)*gamma, beta, delta, sigma, x) <= delta {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
		default: // delta < 0
			if k == 0 {
				x = -delta
			} else {
				x = math.Max(
					sigma/(c-float64(k-1)*gamma),
					(sigma+beta*delta)/(c-rhoc-float64(k)*gamma),
				)
			}
		}
		d := x
		for i := 1; i <= h; i++ {
			d += thetaAt(c-float64(i-1)*gamma, beta, delta, sigma, x)
		}
		return d
	}
	// Fallback: the exact solver.
	d, _, _ := innerMinimize(h, c, gamma, rhoc, delta, sigma)
	return d
}

// OptimizeAlphaFunc is the α search of the package: it sweeps the EBB
// decay parameter α (the free effective-bandwidth parameter s of
// Markov-modulated sources) over [alphaLo, alphaHi] for an objective
// eval(ctx, α) that returns a value — typically a delay bound; NaN, +Inf
// or an error mark α infeasible — and a payload. The sweep is a
// log-spaced grid followed by a golden-section refinement; it returns
// the winning α with the payload eval returned for it, so no caller
// prices a winner twice. No α is priced twice either: the 41 grid
// points, the 38 golden-section points and the final probe are
// distinct (TestSearchesPriceEachProbeOnce), so the sweep keeps only the
// grid's best probe and the final one, and caches nothing.
//
// ctx is checked before every probe, and a cancelled sweep returns its
// error. When ctx carries an active span the sweep appears as an
// "OptimizeAlpha" span: the probes run under ctx with its span removed
// (obs.WithoutSpan), and the refinement's final probe — the winner
// unless the grid's best beats it — runs under the sweep's span, so a
// trace shows one priced bound per sweep and tracing costs no extra
// evaluation.
func OptimizeAlphaFunc[R any](ctx context.Context, eval func(ctx context.Context, alpha float64) (float64, R, error), alphaLo, alphaHi float64) (float64, R, error) {
	var none R
	if alphaLo <= 0 || alphaHi <= alphaLo {
		return 0, none, badConfig("need 0 < alphaLo < alphaHi, got [%g, %g]", alphaLo, alphaHi)
	}
	sp := obs.SpanFromContext(ctx).Child("OptimizeAlpha")
	defer sp.End()
	probeCtx := obs.WithoutSpan(ctx)

	var nProbes int64
	defer func() {
		if p := optProbe.Load(); p != nil {
			p.AlphaSweeps.Add(1)
			p.AlphaProbes.Add(nProbes)
		}
	}()
	type probe struct {
		v float64
		r R
	}
	f := func(ctx context.Context, a float64) probe {
		if ctx.Err() != nil {
			return probe{v: math.Inf(1)}
		}
		nProbes++
		v, r, err := eval(ctx, a)
		if err != nil || math.IsNaN(v) {
			v = math.Inf(1)
		}
		return probe{v, r}
	}
	const gridN = 40
	logLo, logHi := math.Log(alphaLo), math.Log(alphaHi)
	bestA, best := 0.0, probe{v: math.Inf(1)}
	for i := 0; i <= gridN; i++ {
		a := math.Exp(logLo + (logHi-logLo)*float64(i)/gridN)
		if p := f(probeCtx, a); p.v < best.v {
			bestA, best = a, p
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, none, err
	}
	if math.IsInf(best.v, 1) {
		return 0, none, fmt.Errorf("%w: no feasible alpha in [%g, %g]", ErrUnstable, alphaLo, alphaHi)
	}
	step := (logHi - logLo) / gridN
	refined := goldenMin(func(la float64) float64 { return f(probeCtx, math.Exp(la)).v },
		math.Log(bestA)-step, math.Log(bestA)+step, 36)
	a := math.Exp(refined)
	p := f(obs.ContextWithSpan(ctx, sp), a)
	if err := ctx.Err(); err != nil {
		return 0, none, err
	}
	if !(p.v <= best.v) {
		a, p = bestA, best
	}
	if sp != nil {
		sp.SetAttr("alpha", a)
		sp.SetAttr("D", p.v)
	}
	return a, p.r, nil
}

// OptimizeAlpha is OptimizeAlphaFunc specialized to DelayBound: build(α)
// supplies the path description at each α and the best bound is
// returned. All sweep evaluations share one Scratch, so the γ-probes
// inside each DelayBound are allocation-free.
func OptimizeAlpha(build func(alpha float64) (PathConfig, error), eps, alphaLo, alphaHi float64) (Result, error) {
	s := getScratch()
	defer putScratch(s)
	_, r, err := OptimizeAlphaFunc(context.Background(), func(ctx context.Context, alpha float64) (float64, Result, error) {
		cfg, err := build(alpha)
		if err != nil {
			return 0, Result{}, err
		}
		r, err := s.DelayBound(ctx, cfg, eps)
		r.Theta = append([]float64(nil), r.Theta...) // un-alias from the shared scratch
		return r.D, r, err
	}, alphaLo, alphaHi)
	return r, err
}

// gammaGridN is the number of grid points of every γ search, and
// delayBoundGoldenIters the golden-section steps of DelayBound's: its
// search probes gammaGridN + 2 + delayBoundGoldenIters γ (the size of
// the σ log, batch.go) before pricing its winner.
const (
	gammaGridN            = 48
	delayBoundGoldenIters = 60
)

// gammaSearch is the rate-slack search behind every bound of the
// package (Section IV's outer minimization over γ ∈ (0, gmax)): probe a
// grid of gammaGridN points gmax·i/(gammaGridN+1), refine the best of
// them by golden section over iters steps on [γ* − width, γ* + width]
// clipped inside the open interval, and price the refined γ in full,
// falling back to the grid's best point when the refinement does not
// beat it. probe returns the delay at one γ (+Inf or NaN when
// infeasible) for probe number n: grid point i is probe i−1, and the
// golden section's probes follow from gammaGridN on. full returns a γ's
// payload and delay. ctx is polled before every probe, and a cancelled
// search returns its error.
//
// fl, the EDF fixed point's grid floor (edf.go), is nil for every other
// search. With a floor the grid starts at the point that won the last
// search, skips the points the floor proves cannot be the grid's first
// minimum, and ends the search, with fl.decided set, once its minimum
// is at most fl.stop. The grid's minimum and first argmin, and so the
// result, are those of the full grid (DESIGN.md §16, "Grid floors
// along the EDF bracket").
func gammaSearch[R any](ctx context.Context, gmax, width float64, iters int, fl *gridFloor,
	probe func(n int, gamma float64) float64, full func(gamma float64) (R, float64, error)) (R, error) {
	var none R
	done := ctx.Done()
	f := func(n int, g float64) float64 {
		select {
		case <-done:
			return math.Inf(1)
		default:
			return probe(n, g)
		}
	}
	first := fl.begin()
	bestI, bestD := 0, math.Inf(1)
	for k := 0; k <= gammaGridN; k++ {
		i := k
		if k == 0 {
			i = first
		} else if k == first {
			continue
		}
		if i == 0 || fl.skip(i, bestI, bestD) {
			continue
		}
		d := f(i-1, gridGamma(gmax, i))
		fl.note(i, d)
		if d < bestD || d == bestD && i < bestI {
			bestD, bestI = d, i
		}
		if fl.decides(bestI, bestD) {
			return none, nil
		}
	}
	fl.end(bestI)
	if err := ctx.Err(); err != nil {
		return none, err
	}
	if math.IsInf(bestD, 1) {
		return none, fmt.Errorf("%w: no feasible gamma below %g", ErrUnstable, gmax)
	}
	bestG := gridGamma(gmax, bestI)
	n := gammaGridN
	g := goldenMin(func(g float64) float64 { n++; return f(n-1, g) },
		math.Max(bestG-width, gmax*1e-9), math.Min(bestG+width, gmax*(1-1e-9)), iters)
	if err := ctx.Err(); err != nil {
		return none, err
	}
	r, d, err := full(g)
	if err != nil || !(d <= bestD) {
		r, _, err = full(bestG)
	}
	return r, err
}

// gridGamma is grid point i of a γ search below gmax.
func gridGamma(gmax float64, i int) float64 {
	return gmax * float64(i) / float64(gammaGridN+1)
}

// goldenMin minimizes f on [lo, hi] by golden-section search; f should be
// unimodal on the bracket (our outer objectives are, empirically; callers
// seed the bracket from a grid scan so a flat or noisy f degrades
// gracefully to the grid answer).
func goldenMin(f func(float64) float64, lo, hi float64, iters int) float64 {
	const phi = 0.6180339887498949
	a, b := lo, hi
	c1 := b - phi*(b-a)
	c2 := a + phi*(b-a)
	f1, f2 := f(c1), f(c2)
	for i := 0; i < iters; i++ {
		if f1 <= f2 {
			b, c2, f2 = c2, c1, f1
			c1 = b - phi*(b-a)
			f1 = f(c1)
		} else {
			a, c1, f1 = c1, c2, f2
			c2 = a + phi*(b-a)
			f2 = f(c2)
		}
	}
	return (a + b) / 2
}
