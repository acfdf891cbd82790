package core

import (
	"context"
	"fmt"
	"math"

	"deltasched/internal/envelope"
	"deltasched/internal/obs"
)

// AdditiveResult reports the node-by-node delay analysis used as the
// baseline in the paper's Example 3 (Fig. 4).
type AdditiveResult struct {
	D       float64   // total delay bound: Σ_h d_h
	PerNode []float64 // individual per-node bounds d_h
	Gamma   float64   // rate slack chosen by the outer optimization
}

// addTable is the γ-independent structure of the additive per-node
// recursion: the output characterization changes only the prefactor and
// rate from node to node, so the decay chain α_1, α_2, ... and the
// per-node two-bound merge weights are fixed per configuration and
// priced once per AdditiveBound call (see envelope.PairPricer).
type addTable struct {
	alphas []float64             // through-chain decay entering node k (0-based)
	pairs  []envelope.PairPricer // Merge(bg, bs) structure at node k
}

// buildAddTable prices the additive chain of cfg into the Scratch's
// table buffers.
func (s *Scratch) buildAddTable(cfg PathConfig) *addTable {
	t := &s.addTab
	t.alphas = growTo(t.alphas, cfg.H)
	if cap(t.pairs) < cfg.H {
		t.pairs = make([]envelope.PairPricer, cfg.H)
	}
	t.pairs = t.pairs[:cfg.H]
	a := cfg.Through.Alpha
	for k := 0; k < cfg.H; k++ {
		p := envelope.NewPairPricer(a, cfg.Cross.Alpha)
		t.alphas[k] = a
		t.pairs[k] = p
		// The merged bound's decay is the next node's through decay —
		// the same 1/(1/α + 1/α_c) float64 Merge would assign.
		a = p.Alpha()
	}
	return t
}

// AdditiveBound computes an end-to-end delay bound for blind multiplexing
// by adding per-node bounds, the classical approach the paper contrasts
// with its network-service-curve analysis. In discrete time the resulting
// bounds grow like O(H³ log H) (the paper, Section V-C), far worse than
// the Θ(H log H) of DelayBound. The construction, re-derived for this
// implementation:
//
//  1. At node h the through traffic is EBB (M_h, ρ_h, α_h), starting from
//     the input description at h=1.
//  2. Its discrete-time sample-path envelope costs a rate slack γ:
//     G_h(t) = (ρ_h+γ)t with bound M_h e^{−α_h σ}/(1−e^{−α_h γ}).
//  3. The BMUX leftover service curve at the node is S(t) = (C−ρ_c−γ)t
//     with bound M_c e^{−α_c σ}/(1−e^{−α_c γ}) (Theorem 1 with Δ=+∞).
//  4. The per-node delay bound is d_h = σ_h/(C−ρ_c−γ), where σ_h solves
//     the merged bounding function (Eq. 33) at violation eps/H.
//  5. The departures are again EBB with rate ρ_h+γ and the *merged*
//     bounding function (the min-plus deconvolution of the linear envelope
//     by the linear service curve leaves the rate unchanged for stable
//     nodes): ρ_{h+1} = ρ_h + γ, and (M_{h+1}, α_{h+1}) from the merge.
//     The per-hop 1/α accumulation (α_h ≈ α/h) and the multiplicative
//     prefactor growth are exactly what inflates σ_h ∼ h²·polylog and the
//     sum to O(H³ log H).
//
// The end-to-end delay of a tandem is at most the sum of per-node virtual
// delays, and the union bound over the H per-node violations gives eps.
func AdditiveBound(cfg PathConfig, eps float64) (AdditiveResult, error) {
	return AdditiveBoundCtx(context.Background(), cfg, eps)
}

// AdditiveBoundCtx is AdditiveBound under a context: a cancelled ctx
// stops the γ search at its next probe and returns ctx's error, and with
// an active span in ctx the solve appears as an "AdditiveBound" span. The
// γ-independent decay-chain table is built once per call, every γ probe
// is a D-only evaluation over it, and the per-node delay vector is
// materialized only for the winning γ.
func AdditiveBoundCtx(ctx context.Context, cfg PathConfig, eps float64) (AdditiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return AdditiveResult{}, err
	}
	if err := checkEps(eps); err != nil {
		return AdditiveResult{}, err
	}
	sp := obs.SpanFromContext(ctx).Child("AdditiveBound")
	defer sp.End()
	var nProbes int64
	defer func() {
		if p := optProbe.Load(); p != nil {
			p.AdditiveProbes.Add(nProbes)
			p.GammaBatchProbes.Add(nProbes)
		}
	}()

	// Stability must hold at the last node, whose through rate has grown
	// by (H−1)γ, plus the final sample-path slack: ρ + Hγ + ρ_c < C.
	gmax := (cfg.C - cfg.Through.Rho - cfg.Cross.Rho) / float64(cfg.H)
	if gmax <= 0 {
		return AdditiveResult{}, fmt.Errorf("%w: additive analysis infeasible", ErrUnstable)
	}

	s := getScratch()
	defer putScratch(s)
	tab := s.buildAddTable(cfg)
	res, err := gammaSearch(ctx, gmax, gmax/48, 50, nil,
		func(_ int, g float64) float64 {
			nProbes++
			r, err := tab.atGamma(cfg, eps, g, false)
			if err != nil {
				return math.Inf(1)
			}
			return r.D
		},
		func(g float64) (AdditiveResult, float64, error) {
			r, err := tab.atGamma(cfg, eps, g, true)
			return r, r.D, err
		})
	if err == nil && sp != nil {
		sp.SetAttr("gamma", res.Gamma)
		sp.SetAttr("D", res.D)
	}
	return res, err
}

// atGamma runs the additive per-node recursion of cfg, the
// configuration the table was built for, at a fixed γ. With
// collectPerNode false only the total D is computed (no per-node slice
// allocation) — the arithmetic is identical either way, so probe and
// final evaluations agree bit-for-bit. The per-node loop replays the
// SamplePath + Merge + SigmaFor arithmetic of the untabled recursion
// expression for expression (the chain's decays and merge weights are
// the same float64s Merge would recompute), which batch_test.go pins
// against a verbatim copy of the old code.
func (tab *addTable) atGamma(cfg PathConfig, eps, gamma float64, collectPerNode bool) (AdditiveResult, error) {
	if gamma <= 0 {
		return AdditiveResult{}, badConfig("gamma must be positive, got %g", gamma)
	}
	perNodeEps := eps / float64(cfg.H)
	left := cfg.C - cfg.Cross.Rho - gamma // BMUX leftover service rate
	if left <= 0 {
		return AdditiveResult{}, ErrUnstable
	}
	// Cross sample-path bound prefactor (Theorem 1 with Δ=+∞); its decay
	// is cfg.Cross.Alpha, carried by the pair tables.
	bsM := cfg.Cross.M / (1 - math.Exp(-cfg.Cross.Alpha*gamma))

	rho := cfg.Through.Rho
	m := cfg.Through.M
	res := AdditiveResult{Gamma: gamma}
	if collectPerNode {
		res.PerNode = make([]float64, 0, cfg.H)
	}
	for k := 0; k < cfg.H; k++ {
		if rho+gamma > left {
			if !collectPerNode {
				// D-only sweep probes discard the error's content (the
				// probe just maps to +Inf), so don't pay fmt for it.
				return AdditiveResult{}, ErrUnstable
			}
			return AdditiveResult{}, fmt.Errorf("%w: node %d (through rate %g, leftover %g)",
				ErrUnstable, k+1, rho, left)
		}
		// Through sample-path bound at this node, then the two-bound
		// merge (Eq. 33) priced through the node's pair table.
		bgM := m / (1 - math.Exp(-tab.alphas[k]*gamma))
		mergedM := tab.pairs[k].MergeM(bgM, bsM)
		// σ_h = SigmaFor(eps/H) on the merged bound {mergedM, 1/w}.
		var sigma float64
		if mergedM > perNodeEps {
			sigma = math.Log(mergedM/perNodeEps) / tab.pairs[k].Alpha()
		}
		d := sigma / left
		if collectPerNode {
			res.PerNode = append(res.PerNode, d)
		}
		res.D += d

		// Output characterization: next node's EBB description.
		m = math.Max(1, mergedM)
		rho = rho + gamma
	}
	return res, nil
}
