package core

import (
	"fmt"
	"math"

	"deltasched/internal/minplus"
)

// SchedulabilitySlack is the absolute numerical slack the schedulability
// tests grant the scheduled side of a deviation comparison. The min-plus
// deviation computations accumulate floating-point error across breakpoint
// enumeration and curve shifting, so exact comparisons would misclassify
// configurations sitting on the feasibility boundary (where the bisection
// in DelayBoundDet converges by construction). The slack is in kbit, the
// units of Eq. 24's vertical deviation against the capacity–delay product
// C·d, and is orders of magnitude below any physically meaningful backlog
// in the paper's setups.
const SchedulabilitySlack = 1e-9

// SchedulableDet evaluates the paper's deterministic schedulability
// condition (Eq. 24) for flow j and target delay d:
//
//	sup_{t>0} { Σ_{k∈N_j} E_k(t + Δ_{j,k}(d)) − C·t } <= C·d.
//
// By Theorem 2 the condition is sufficient for every Δ-scheduler, and also
// necessary when the envelopes are concave. The sum runs over N_j — all
// flows whose traffic can precede flow j, including j itself (Δ_{j,j}=0).
func SchedulableDet(c float64, j FlowID, envs map[FlowID]minplus.Curve, p Policy, d float64) (bool, error) {
	if d < 0 || math.IsNaN(d) {
		return false, badConfig("delay target must be >= 0, got %g", d)
	}
	sum, err := precedenceSum(j, envs, p, d)
	if err != nil {
		return false, err
	}
	dev := minplus.VDev(sum, minplus.ConstantRate(c))
	return dev <= c*d+SchedulabilitySlack, nil
}

// precedenceSum builds Σ_{k∈N_j} E_k(· + Δ_{j,k}(d)).
func precedenceSum(j FlowID, envs map[FlowID]minplus.Curve, p Policy, d float64) (minplus.Curve, error) {
	if _, ok := envs[j]; !ok {
		return minplus.Curve{}, fmt.Errorf("%w: %d", ErrUnknownFlow, j)
	}
	sum := minplus.Zero()
	for k, ek := range envs {
		delta := p.Delta(j, k)
		if math.IsInf(delta, -1) {
			continue
		}
		x := DeltaClamped(delta, d)
		var (
			shifted minplus.Curve
			err     error
		)
		if x >= 0 {
			shifted, err = minplus.ShiftLeft(ek, x)
		} else {
			shifted, err = minplus.ShiftRight(ek, -x)
		}
		if err != nil {
			return minplus.Curve{}, fmt.Errorf("core: shifting envelope of flow %d: %w", k, err)
		}
		sum = minplus.Add(sum, shifted)
	}
	return sum, nil
}

// DelayBoundDet returns the smallest delay d for which SchedulableDet
// holds — the worst-case delay bound of flow j under policy p at a link of
// rate c. For concave envelopes the result is tight (Theorem 2). Returns
// ErrUnstable when the aggregate long-term rate of the flows that can
// precede j is not below c.
func DelayBoundDet(c float64, j FlowID, envs map[FlowID]minplus.Curve, p Policy) (float64, error) {
	if c <= 0 || math.IsNaN(c) {
		return 0, badConfig("link rate must be positive, got %g", c)
	}
	// Stability: the tail rates of all potentially-preceding flows must
	// stay below the link rate.
	rate := 0.0
	for k, ek := range envs {
		if math.IsInf(p.Delta(j, k), -1) {
			continue
		}
		rate += ek.TailSlope()
	}
	if rate > c+1e-12 {
		return 0, fmt.Errorf("%w: preceding rate %g, capacity %g", ErrUnstable, rate, c)
	}

	// Bracket the minimal feasible d by doubling, then bisect. For concave
	// envelopes feasibility is monotone in d (a delay bound d implies every
	// d' > d, and Eq. 24 is exact); the final verification guards the
	// general case.
	hi := 1.0
	for iter := 0; ; iter++ {
		ok, err := SchedulableDet(c, j, envs, p, hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if iter > 120 {
			return 0, fmt.Errorf("%w: condition not satisfiable", ErrUnstable)
		}
	}
	lo := 0.0
	if ok, err := SchedulableDet(c, j, envs, p, 0); err != nil {
		return 0, err
	} else if ok {
		return 0, nil
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		ok, err := SchedulableDet(c, j, envs, p, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
