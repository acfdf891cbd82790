package core

import (
	"fmt"
	"math"

	"deltasched/internal/minplus"
)

// DetPathConfig describes a homogeneous path in the *deterministic*
// network calculus (the paper's γ=0 remark in Section IV): worst-case
// envelopes instead of EBB bounds, and bounds that are never violated.
type DetPathConfig struct {
	H       int
	C       float64
	Through minplus.Curve // deterministic sample-path envelope of the through aggregate
	Cross   minplus.Curve // per-node cross-traffic envelope (fresh at every node)
	Delta0c float64       // scheduler constant Δ_{0,c}
}

// DetResult carries a deterministic end-to-end bound and the θ used.
type DetResult struct {
	D     float64
	Theta float64       // common per-node θ chosen by the optimization
	SNet  minplus.Curve // the network service curve at that θ
}

// Validate checks the configuration.
func (cfg DetPathConfig) Validate() error {
	if cfg.H < 1 {
		return badConfig("path length H must be >= 1, got %d", cfg.H)
	}
	if cfg.C <= 0 || math.IsNaN(cfg.C) {
		return badConfig("capacity must be positive, got %g", cfg.C)
	}
	if !cfg.Through.NonDecreasing() || !cfg.Cross.NonDecreasing() {
		return badConfig("envelopes must be non-decreasing")
	}
	if math.IsNaN(cfg.Delta0c) {
		return badConfig("Delta0c is NaN")
	}
	return nil
}

// NetworkServiceDet builds the deterministic network service curve
// S^net(·; θ) = S¹ ∗ ... ∗ S^H from the Theorem 1 leftover curves
// (Eq. 19) of the individual nodes, all at the same θ (the paper notes
// that for γ=0 the optimization forces equal θ across homogeneous nodes).
func NetworkServiceDet(cfg DetPathConfig, theta float64) (minplus.Curve, error) {
	if err := cfg.Validate(); err != nil {
		return minplus.Curve{}, err
	}
	envs := map[FlowID]minplus.Curve{0: cfg.Through, 1: cfg.Cross}
	pol := fixedDelta{delta: cfg.Delta0c}
	per, err := LeftoverDet(cfg.C, 0, envs, pol, theta)
	if err != nil {
		return minplus.Curve{}, err
	}
	// Theorem 1 curves are non-monotone for negative Δ at small θ; the
	// non-decreasing lower closure is a (smaller, hence valid) service
	// curve in the sense the delay analysis requires.
	per, err = minplus.LowerNonDecreasing(per)
	if err != nil {
		return minplus.Curve{}, fmt.Errorf("%w: leftover closure: %v", ErrUnstable, err)
	}
	net := per
	for i := 1; i < cfg.H; i++ {
		net = minplus.Convolve(net, per)
	}
	return net, nil
}

// DelayBoundDetPath computes the deterministic end-to-end delay bound
// h(E_through, S^net(·;θ)), optimizing the free parameter θ by golden-
// section search (the objective is unimodal in θ for the concave/convex
// curve families of interest; the search is seeded by a grid scan so a
// non-unimodal objective degrades gracefully).
func DelayBoundDetPath(cfg DetPathConfig) (DetResult, error) {
	if err := cfg.Validate(); err != nil {
		return DetResult{}, err
	}
	// Stability.
	if cfg.Through.TailSlope()+cfg.Cross.TailSlope() > cfg.C+1e-12 {
		return DetResult{}, fmt.Errorf("%w: rates %g+%g vs capacity %g",
			ErrUnstable, cfg.Through.TailSlope(), cfg.Cross.TailSlope(), cfg.C)
	}

	eval := func(theta float64) float64 {
		net, err := NetworkServiceDet(cfg, theta)
		if err != nil {
			return math.Inf(1)
		}
		d, err := minplus.HDev(cfg.Through, net)
		if err != nil {
			return math.Inf(1)
		}
		return d
	}

	// θ beyond the burst-clearing time of a node buys nothing: bracket by
	// the blind-multiplexing e2e bound at θ=0.
	d0 := eval(0)
	if math.IsInf(d0, 1) {
		return DetResult{}, fmt.Errorf("%w: no deterministic bound at theta=0", ErrUnstable)
	}
	hiTheta := d0 + 1
	const gridN = 32
	bestT, bestD := 0.0, d0
	for i := 1; i <= gridN; i++ {
		th := hiTheta * float64(i) / gridN
		if d := eval(th); d < bestD {
			bestD, bestT = d, th
		}
	}
	step := hiTheta / gridN
	t := goldenMin(eval, math.Max(0, bestT-step), bestT+step, 48, nil)
	if d := eval(t); d < bestD {
		bestD, bestT = d, t
	}
	net, err := NetworkServiceDet(cfg, bestT)
	if err != nil {
		return DetResult{}, err
	}
	return DetResult{D: bestD, Theta: bestT, SNet: net}, nil
}

// fixedDelta is the two-flow policy with the given Δ_{0,c} (flow 0 is the
// through traffic, flow 1 the cross aggregate).
type fixedDelta struct {
	delta float64
}

func (p fixedDelta) Name() string { return fmt.Sprintf("Delta(%g)", p.delta) }

func (p fixedDelta) Delta(j, k FlowID) float64 {
	switch {
	case j == k:
		return 0
	case j == 0:
		return p.delta
	default:
		return -p.delta
	}
}
