// Package envelope provides the traffic characterizations of the paper's
// Section II-A: exponential bounding functions, the EBB (Exponentially
// Bounded Burstiness) traffic model with its discrete-time sample-path
// envelope, and Markov-modulated on-off sources with their effective
// bandwidth.
//
// Throughout, time is measured in slots (the paper's discrete-time unit,
// 1 ms in the numerical examples) and data in the caller's unit (kilobits
// in the examples).
package envelope

import (
	"errors"
	"fmt"
	"math"
)

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
