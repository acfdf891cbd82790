// Package envelope provides the traffic characterizations of the paper's
// Section II-A: deterministic sample-path envelopes, statistical envelopes
// with exponential bounding functions, the EBB (Exponentially Bounded
// Burstiness) traffic model, and Markov-modulated on-off sources with
// their effective bandwidth.
//
// Throughout, time is measured in slots (the paper's discrete-time unit,
// 1 ms in the numerical examples) and data in the caller's unit (kilobits
// in the examples).
package envelope

import (
	"errors"
	"fmt"
	"math"

	"deltasched/internal/minplus"
)

// Statistical is a statistical sample-path envelope in the sense of the
// paper's Eq. (2): for all t, σ >= 0,
//
//	P( sup_{0<=s<=t} { A(s,t) − G(t−s) } > σ ) <= Eps(σ).
//
// A deterministic envelope is the special case Eps ≡ 0 (σ > 0).
type Statistical struct {
	G   minplus.Curve
	Eps func(sigma float64) float64
}

// ExpBound is the exponential bounding function ε(σ) = M·e^{−α·σ}.
// Bounding functions are probabilities, so callers should clamp At() to 1
// when reporting; the raw value is kept because intermediate bounds
// legitimately exceed 1 during optimization.
type ExpBound struct {
	M     float64 // prefactor, M >= 0
	Alpha float64 // decay rate, α > 0
}

// ErrBadBound indicates non-positive decay or negative prefactor.
var ErrBadBound = errors.New("envelope: bound needs M >= 0 and Alpha > 0")

// Validate checks the bound's parameters.
func (b ExpBound) Validate() error {
	if b.M < 0 || b.Alpha <= 0 || math.IsNaN(b.M) || math.IsNaN(b.Alpha) {
		return fmt.Errorf("%w (M=%g, Alpha=%g)", ErrBadBound, b.M, b.Alpha)
	}
	return nil
}

// At evaluates ε(σ) = M·e^{−α·σ}.
func (b ExpBound) At(sigma float64) float64 {
	return b.M * math.Exp(-b.Alpha*sigma)
}

// SigmaFor returns the σ at which the bound equals the target violation
// probability eps: σ = ln(M/eps)/α. It returns 0 when the bound is already
// below eps at σ=0.
func (b ExpBound) SigmaFor(eps float64) float64 {
	if eps <= 0 {
		return math.Inf(1)
	}
	if b.M <= eps {
		return 0
	}
	return math.Log(b.M/eps) / b.Alpha
}

// Merge computes the exact infimum
//
//	inf_{σ_1+...+σ_N = σ} Σ_j M_j e^{−α_j σ_j}
//	    = e^{−σ/w} · Π_j (M_j α_j w)^{1/(α_j w)},   w = Σ_j 1/α_j,
//
// as a single exponential bound (the paper's Eq. (33); the closed form is
// the Lagrange solution, verified against brute force in the tests). This
// is the workhorse for combining per-node and per-flow bounding functions.
func Merge(bounds ...ExpBound) (ExpBound, error) {
	if len(bounds) == 0 {
		return ExpBound{}, errors.New("envelope: Merge needs at least one bound")
	}
	w := 0.0
	for _, b := range bounds {
		if err := b.Validate(); err != nil {
			return ExpBound{}, err
		}
		if b.M == 0 {
			// A zero term is slack: it contributes nothing to the sum and
			// absorbs no σ, so skip it.
			continue
		}
		w += 1 / b.Alpha
	}
	if w == 0 {
		return ExpBound{M: 0, Alpha: bounds[0].Alpha}, nil
	}
	logM := 0.0
	for _, b := range bounds {
		if b.M == 0 {
			continue
		}
		logM += math.Log(b.M*b.Alpha*w) / (b.Alpha * w)
	}
	return ExpBound{M: math.Exp(logM), Alpha: 1 / w}, nil
}

// EBB describes an Exponentially Bounded Burstiness arrival process
// (paper Eq. (27), after Yaron & Sidi): for all s <= t and σ >= 0,
//
//	P( A(s,t) > Rho·(t−s) + σ ) <= M·e^{−Alpha·σ}.
//
// M >= 1 is the prefactor, Rho the long-term rate bound, Alpha the decay.
type EBB struct {
	M     float64
	Rho   float64
	Alpha float64
}

// Validate checks the EBB parameters.
func (e EBB) Validate() error {
	if !(e.M >= 1) || !(e.Rho >= 0) || !(e.Alpha > 0) ||
		math.IsInf(e.M, 1) || math.IsInf(e.Rho, 1) || math.IsInf(e.Alpha, 1) {
		return fmt.Errorf("envelope: invalid EBB (M=%g, Rho=%g, Alpha=%g); need finite M>=1, Rho>=0, Alpha>0",
			e.M, e.Rho, e.Alpha)
	}
	return nil
}

// Bound returns the increment bounding function M·e^{−α·σ}.
func (e EBB) Bound() ExpBound { return ExpBound{M: e.M, Alpha: e.Alpha} }

// SamplePath converts the increment bound into a discrete-time statistical
// sample-path envelope (paper Section IV): for any γ > 0, the envelope
// G(t) = (Rho+γ)·t has bounding function
//
//	ε(σ) = M·e^{−α·σ} / (1 − e^{−α·γ}),
//
// obtained with the union bound over the slots of the interval. The rate
// give-up γ buys summability of the per-slot violation probabilities.
func (e EBB) SamplePath(gamma float64) (rate float64, bound ExpBound, err error) {
	if err := e.Validate(); err != nil {
		return 0, ExpBound{}, err
	}
	if gamma <= 0 {
		return 0, ExpBound{}, fmt.Errorf("envelope: SamplePath needs gamma > 0, got %g", gamma)
	}
	den := 1 - math.Exp(-e.Alpha*gamma)
	return e.Rho + gamma, ExpBound{M: e.M / den, Alpha: e.Alpha}, nil
}

// SamplePathEnvelope packages SamplePath as a Statistical envelope.
func (e EBB) SamplePathEnvelope(gamma float64) (Statistical, error) {
	rate, bound, err := e.SamplePath(gamma)
	if err != nil {
		return Statistical{}, err
	}
	return Statistical{
		G:   minplus.ConstantRate(rate),
		Eps: bound.At,
	}, nil
}

// SumEBB aggregates independent-or-not EBB flows: rates add and the
// bounding functions combine through Merge (no independence is assumed,
// matching the paper's multiplexing model).
func SumEBB(flows ...EBB) (EBB, error) {
	if len(flows) == 0 {
		return EBB{}, errors.New("envelope: SumEBB needs at least one flow")
	}
	rho := 0.0
	bounds := make([]ExpBound, 0, len(flows))
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			return EBB{}, err
		}
		rho += f.Rho
		bounds = append(bounds, f.Bound())
	}
	b, err := Merge(bounds...)
	if err != nil {
		return EBB{}, err
	}
	if b.M < 1 {
		b.M = 1 // an EBB prefactor below 1 is vacuous at σ=0; keep the model well-formed
	}
	return EBB{M: b.M, Rho: rho, Alpha: b.Alpha}, nil
}

// Deterministic returns the EBB representation of a leaky bucket
// E(t) = Rho·t + B: letting M = e^{B·α} and α → ∞ recovers the bucket
// (paper Section IV, case γ=0). The returned EBB uses the given finite α.
func Deterministic(rho, burst, alpha float64) EBB {
	return EBB{M: math.Exp(burst * alpha), Rho: rho, Alpha: alpha}
}

// FitEBB estimates, for a fixed decay α, the smallest (M, ρ) such that the
// EBB bound P(A(s,t) > ρ(t−s)+σ) <= M·e^{−ασ} holds empirically on the
// given per-slot arrival trace for every window length up to maxWindow:
// ρ is taken as the worst observed rate over long windows (plus the slack
// the caller wants to add afterwards), and M as the smallest prefactor
// covering the empirical exceedance frequencies at all (window, σ) pairs
// probed. The fit is a measurement tool (calibrating models to traces);
// the returned parameters make the bound hold on the trace, not in
// distribution.
func FitEBB(trace []float64, alpha float64, maxWindow int) (EBB, error) {
	if len(trace) < 2 {
		return EBB{}, errors.New("envelope: FitEBB needs at least 2 slots")
	}
	if alpha <= 0 || math.IsNaN(alpha) {
		return EBB{}, fmt.Errorf("envelope: FitEBB needs alpha > 0, got %g", alpha)
	}
	if maxWindow < 1 || maxWindow > len(trace) {
		maxWindow = len(trace)
	}
	cum := make([]float64, len(trace)+1)
	for i, x := range trace {
		if x < 0 || math.IsNaN(x) {
			return EBB{}, fmt.Errorf("envelope: trace slot %d invalid: %g", i, x)
		}
		cum[i+1] = cum[i] + x
	}
	mean := cum[len(trace)] / float64(len(trace))

	// ρ: the long-window mean rate (EBB needs ρ at least the mean rate for
	// the exceedance probabilities to decay).
	rho := mean

	// M: for a grid of windows and thresholds, the empirical exceedance
	// frequency of ρ·n + σ must be <= M·e^{−ασ}.
	m := 1.0
	for n := 1; n <= maxWindow; n = growWindow(n) {
		// Collect window sums.
		count := len(trace) - n + 1
		if count < 10 {
			break
		}
		for _, sigmaFrac := range []float64{0.25, 0.5, 1, 2, 4} {
			// Scale thresholds to the window's natural deviation.
			sigma := sigmaFrac * (1 + math.Sqrt(float64(n))*mean)
			exceed := 0
			for s := 0; s < count; s++ {
				if cum[s+n]-cum[s] > rho*float64(n)+sigma {
					exceed++
				}
			}
			freq := float64(exceed) / float64(count)
			if need := freq * math.Exp(alpha*sigma); need > m {
				m = need
			}
		}
	}
	return EBB{M: m, Rho: rho, Alpha: alpha}, nil
}

func growWindow(n int) int {
	next := n * 3 / 2
	if next == n {
		next = n + 1
	}
	return next
}
