package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"deltasched/internal/envelope"
)

// StatFlow is one cross flow (or flow aggregate) in a statistical
// single-node analysis: its EBB description and its precedence constant
// Δ_{j,k} with respect to the tagged flow j.
type StatFlow struct {
	EBB   envelope.EBB
	Delta float64 // Δ_{j,k}; may be ±Inf
}

// NodeResult is the outcome of a single-node statistical delay analysis.
type NodeResult struct {
	D     float64
	Sigma float64
	Gamma float64
	Bound envelope.ExpBound
}

// DelayBoundStatNode computes the probabilistic delay bound of a tagged
// EBB flow at one Δ-scheduled node shared with an arbitrary set of cross
// flows — the paper's Section III-B (Eqs. 20–23) in its full multi-flow
// generality, which the end-to-end machinery (built for the two-aggregate
// topology of Fig. 1) does not expose.
//
// With the statistical sample-path envelopes G_k(t) = (ρ_k+γ)t of Eq. (2),
// the schedulability condition Eq. (23) reduces — the supremand is
// piecewise linear in t with non-decreasing slopes that end negative under
// stability, so the supremum sits at t→0⁺ — to
//
//	Σ_k (ρ_k+γ)·[min(Δ_{j,k}, d)]_+  +  σ  <=  C·d,
//
// a piecewise-linear equation in d solved exactly by scanning the sorted
// positive Δ breakpoints. σ comes from merging all flows' bounding
// functions (Eq. 33) at the target violation probability, and the free
// slack γ is optimized numerically as in Section IV.
func DelayBoundStatNode(c float64, through envelope.EBB, cross []StatFlow, eps float64) (NodeResult, error) {
	if c <= 0 || math.IsNaN(c) {
		return NodeResult{}, badConfig("link rate must be positive, got %g", c)
	}
	if err := checkEps(eps); err != nil {
		return NodeResult{}, err
	}
	if err := through.Validate(); err != nil {
		return NodeResult{}, fmt.Errorf("%w: tagged flow: %w", ErrBadConfig, err)
	}
	// Flows with Δ = −∞ never precede the tagged flow and drop out of N_j.
	active := make([]StatFlow, 0, len(cross))
	totalRho := through.Rho
	for i, f := range cross {
		if err := f.EBB.Validate(); err != nil {
			return NodeResult{}, fmt.Errorf("%w: cross flow %d: %w", ErrBadConfig, i, err)
		}
		if math.IsNaN(f.Delta) {
			return NodeResult{}, badConfig("cross flow %d: Delta is NaN", i)
		}
		if math.IsInf(f.Delta, -1) {
			continue
		}
		active = append(active, f)
		totalRho += f.EBB.Rho
	}
	n := float64(len(active) + 1)
	gmax := (c - totalRho) / n
	if gmax <= 0 {
		return NodeResult{}, fmt.Errorf("%w: total rate %g at capacity %g", ErrUnstable, totalRho, c)
	}

	return gammaSearch(context.Background(), gmax, gmax/48, 48, nil,
		func(_ int, g float64) float64 {
			r, err := statNodeAtGamma(c, through, active, eps, g)
			if err != nil {
				return math.Inf(1)
			}
			return r.D
		},
		func(g float64) (NodeResult, float64, error) {
			r, err := statNodeAtGamma(c, through, active, eps, g)
			return r, r.D, err
		}, nil)
}

func statNodeAtGamma(c float64, through envelope.EBB, active []StatFlow, eps, gamma float64) (NodeResult, error) {
	// Combined bounding function: the tagged flow's sample-path envelope
	// bound plus every preceding flow's (Eq. 21 with Eq. 33).
	_, bg, err := through.SamplePath(gamma)
	if err != nil {
		return NodeResult{}, err
	}
	bounds := []envelope.ExpBound{bg}
	for _, f := range active {
		_, b, err := f.EBB.SamplePath(gamma)
		if err != nil {
			return NodeResult{}, err
		}
		bounds = append(bounds, b)
	}
	bound, err := envelope.Merge(bounds...)
	if err != nil {
		return NodeResult{}, err
	}
	sigma := bound.SigmaFor(eps)

	// Solve C·d − Σ_k ρ'_k·[min(Δ_k, d)]_+ = σ exactly. g(d) is piecewise
	// linear and strictly increasing (slope >= C − Σρ' > 0), with
	// breakpoints at the positive finite Δ values.
	type br struct{ delta, rho float64 }
	var brs []br
	slope0 := c
	for _, f := range active {
		rho := f.EBB.Rho + gamma
		switch {
		case math.IsInf(f.Delta, 1):
			slope0 -= rho // min(∞,d) = d for all d
		case f.Delta > 0:
			brs = append(brs, br{f.Delta, rho})
			slope0 -= rho // active until d reaches Δ
		default:
			// Δ <= 0: the term is 0 for every d >= 0.
		}
	}
	if slope0 <= 0 {
		return NodeResult{}, fmt.Errorf("%w: preceding rate exceeds capacity at gamma %g", ErrUnstable, gamma)
	}
	sort.Slice(brs, func(i, j int) bool { return brs[i].delta < brs[j].delta })

	d := 0.0
	need := sigma
	slope := slope0
	prev := 0.0
	for _, b := range brs {
		seg := b.delta - prev
		if take := slope * seg; take >= need {
			d = prev + need/slope
			need = 0
			break
		} else {
			need -= take
		}
		prev = b.delta
		slope += b.rho // term saturates: d's coefficient regains ρ'
	}
	if need > 0 {
		d = prev + need/slope
	}
	return NodeResult{D: d, Sigma: sigma, Gamma: gamma, Bound: bound}, nil
}
