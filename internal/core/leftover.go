package core

import (
	"fmt"
	"math"

	"deltasched/internal/minplus"
)

// LeftoverDet constructs the deterministic leftover service curve of
// Theorem 1 (Eq. 19) for flow j at a Δ-scheduled link of rate c:
//
//	S_j(t;θ) = [ c·t − Σ_{k∈N_{−j}} E_k(t − θ + Δ_{j,k}(θ)) ]_+ · 1{t > θ},
//
// where Δ_{j,k}(θ) = min(Δ_{j,k}, θ) and flows with Δ_{j,k} = −∞ (never
// preceding j) are excluded. Each choice of θ >= 0 yields a valid service
// curve; larger θ discounts more future cross traffic but delays the
// guarantee.
func LeftoverDet(c float64, j FlowID, envs map[FlowID]minplus.Curve, p Policy, theta float64) (minplus.Curve, error) {
	if c <= 0 || math.IsNaN(c) {
		return minplus.Curve{}, badConfig("link rate must be positive, got %g", c)
	}
	if theta < 0 || math.IsNaN(theta) {
		return minplus.Curve{}, badConfig("theta must be >= 0, got %g", theta)
	}
	if _, ok := envs[j]; !ok {
		return minplus.Curve{}, fmt.Errorf("%w: %d", ErrUnknownFlow, j)
	}
	sum := minplus.Zero()
	for k, ek := range envs {
		if k == j {
			continue
		}
		d := p.Delta(j, k)
		if math.IsInf(d, -1) {
			continue // k never precedes j
		}
		// Argument t − θ + min(Δ,θ): a right-shift by θ − min(Δ,θ) >= 0.
		shift := theta - DeltaClamped(d, theta)
		shifted, err := minplus.ShiftRight(ek, shift)
		if err != nil {
			return minplus.Curve{}, fmt.Errorf("core: shifting envelope of flow %d: %w", k, err)
		}
		sum = minplus.Add(sum, shifted)
	}
	s := minplus.SubPos(minplus.ConstantRate(c), sum)
	return minplus.ZeroUntil(s, theta), nil
}
