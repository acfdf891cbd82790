package core

import (
	"context"
	"fmt"
	"math"

	"deltasched/internal/envelope"
)

// NodeSpec describes one node of a non-homogeneous path (the paper's
// closing remark of Section IV): each node may have its own capacity,
// cross-traffic aggregate, and scheduler constant.
type NodeSpec struct {
	C     float64      // link capacity
	Cross envelope.EBB // cross-traffic aggregate at this node
	Delta float64      // Δ_{0,h}: scheduler constant at this node (may be ±Inf)
}

// HeteroPath is a path of heterogeneous Δ-scheduled nodes crossed by a
// single through aggregate.
type HeteroPath struct {
	Through envelope.EBB
	Nodes   []NodeSpec
}

// Validate checks the path description.
func (p HeteroPath) Validate() error {
	if len(p.Nodes) == 0 {
		return badConfig("hetero path needs at least one node")
	}
	if err := p.Through.Validate(); err != nil {
		return fmt.Errorf("%w: through traffic: %w", ErrBadConfig, err)
	}
	for i, n := range p.Nodes {
		if n.C <= 0 || math.IsNaN(n.C) {
			return badConfig("node %d capacity must be positive, got %g", i+1, n.C)
		}
		if err := n.Cross.Validate(); err != nil {
			return fmt.Errorf("%w: node %d cross traffic: %w", ErrBadConfig, i+1, err)
		}
		if math.IsNaN(n.Delta) {
			return badConfig("node %d Delta is NaN", i+1)
		}
	}
	return nil
}

// GammaMax returns the stability limit on the rate slack for the
// heterogeneous path: every node h must satisfy
// C_h − (h−1)γ − (ρ_c^h + γ) > ρ + γ, i.e. (h+1)γ < C_h − ρ_c^h − ρ, and
// at a strict-priority node (Δ_{0,h} = −∞), where Theorem 1 drops the
// cross traffic, C_h − (h−1)γ > ρ + γ, i.e. hγ < C_h − ρ.
func (p HeteroPath) GammaMax() float64 {
	gmax := math.Inf(1)
	for i, n := range p.Nodes {
		g := (n.C - n.Cross.Rho - p.Through.Rho) / float64(i+2)
		if math.IsInf(n.Delta, -1) {
			g = (n.C - p.Through.Rho) / float64(i+1)
		}
		if g < gmax {
			gmax = g
		}
	}
	return gmax
}

// DelayBoundHetero computes the probabilistic end-to-end delay bound over
// a heterogeneous path, reducing — exactly as in the homogeneous case — to
// a single-variable minimization whose optimum lies on one of at most H+1
// explicitly computable points (the paper's closing remark of Sec. IV).
func DelayBoundHetero(p HeteroPath, eps float64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := checkEps(eps); err != nil {
		return Result{}, err
	}
	gmax := p.GammaMax()
	if gmax <= 0 {
		return Result{}, fmt.Errorf("%w: heterogeneous path infeasible", ErrUnstable)
	}
	return gammaSearch(context.Background(), gmax, gmax/48, 50, nil,
		func(_ int, g float64) float64 {
			r, err := heteroAtGamma(p, eps, g)
			if err != nil {
				return math.Inf(1)
			}
			return r.D
		},
		func(g float64) (Result, float64, error) {
			r, err := heteroAtGamma(p, eps, g)
			return r, r.D, err
		})
}

func heteroAtGamma(p HeteroPath, eps, gamma float64) (Result, error) {
	h := len(p.Nodes)
	if gamma <= 0 || gamma >= p.GammaMax() {
		return Result{}, badConfig("gamma %g outside (0, %g)", gamma, p.GammaMax())
	}

	// Bounding function: through sample-path envelope + per-node service
	// bounds, the first H−1 with the convolution union-bound factor.
	_, bg, err := p.Through.SamplePath(gamma)
	if err != nil {
		return Result{}, err
	}
	bounds := []envelope.ExpBound{bg}
	for i, n := range p.Nodes {
		if math.IsInf(n.Delta, -1) {
			// Cross traffic never precedes at this node (Theorem 1 excludes
			// it from N_{−j}); its bounding function is not paid.
			continue
		}
		_, bc, err := n.Cross.SamplePath(gamma)
		if err != nil {
			return Result{}, err
		}
		if i < h-1 {
			bc.M /= 1 - math.Exp(-bc.Alpha*gamma)
		}
		bounds = append(bounds, bc)
	}
	bound, err := envelope.Merge(bounds...)
	if err != nil {
		return Result{}, err
	}
	sigma := bound.SigmaFor(eps)

	// Inner minimization over X with per-node constraint parameters.
	type nodeParams struct{ ch, beta, delta float64 }
	params := make([]nodeParams, h)
	cands := []float64{0}
	for i, n := range p.Nodes {
		ch := n.C - float64(i)*gamma
		beta := n.Cross.Rho + gamma
		delta := n.Delta
		params[i] = nodeParams{ch, beta, delta}
		switch {
		case math.IsInf(delta, -1):
			cands = append(cands, sigma/ch)
		case delta <= 0:
			if x := sigma / ch; x <= -delta {
				cands = append(cands, x)
			}
			if x := (sigma + beta*delta) / (ch - beta); x >= -delta {
				cands = append(cands, x)
			}
			cands = append(cands, -delta)
		default:
			cands = append(cands, sigma/(ch-beta))
			if !math.IsInf(delta, 1) {
				if x := sigma/(ch-beta) - delta; x > 0 {
					cands = append(cands, x)
				}
			}
		}
	}
	best, xOpt := math.Inf(1), 0.0
	for _, x := range cands {
		if x < 0 || math.IsNaN(x) {
			continue
		}
		total := x
		for _, np := range params {
			total += thetaAt(np.ch, np.beta, np.delta, sigma, x)
		}
		if total < best {
			best, xOpt = total, x
		}
	}
	thetas := make([]float64, h)
	for i, np := range params {
		thetas[i] = thetaAt(np.ch, np.beta, np.delta, sigma, xOpt)
	}
	return Result{D: best, Sigma: sigma, Gamma: gamma, X: xOpt, Theta: thetas, Bound: bound}, nil
}
