package core

import (
	"context"
	"math"
	"testing"

	"deltasched/internal/obs"
)

// testProbe installs an OptProbe backed by a private registry and
// returns it; the probe is uninstalled when the test ends so other
// tests see the disabled (nil) seam.
func testProbe(t *testing.T) *OptProbe {
	t.Helper()
	r := obs.NewRegistry()
	p := &OptProbe{
		DelayBoundCalls:  r.Counter("delaybound_calls", "", nil),
		GammaProbes:      r.Counter("gamma_probes", "", nil),
		GammaBatchProbes: r.Counter("gamma_batch_probes", "", nil),
		GammaMemoHits:    r.Counter("gamma_memo_hits", "", nil),
		InnerMinCalls:    r.Counter("innermin_calls", "", nil),
		InnerCandidates:  r.Counter("innermin_candidates", "", nil),
		EnvelopeSegs:     r.Counter("envelope_segments", "", nil),
		AlphaSweeps:      r.Counter("alpha_sweeps", "", nil),
		AlphaProbes:      r.Counter("alpha_probes", "", nil),
		AlphaMemoHits:    r.Counter("alpha_memo_hits", "", nil),
		EDFBisections:    r.Counter("edf_bisections", "", nil),
		AdditiveProbes:   r.Counter("additive_probes", "", nil),
	}
	SetOptProbe(p)
	t.Cleanup(func() { SetOptProbe(nil) })
	return p
}

func TestOptProbeCountsDelayBound(t *testing.T) {
	p := testProbe(t)
	cfg := paperPathConfig(3, 0)
	if _, err := DelayBound(cfg, 1e-9); err != nil {
		t.Fatal(err)
	}
	if got := p.DelayBoundCalls.Load(); got != 1 {
		t.Errorf("delaybound_calls = %d, want 1", got)
	}
	// The gamma sweep probes a grid plus a golden-section refinement;
	// exact counts are algorithmic detail, but the orders of magnitude
	// are part of what the introspection is for.
	if got := p.GammaProbes.Load(); got < 10 {
		t.Errorf("gamma_probes = %d, want a sweep's worth (>= 10)", got)
	}
	if p.InnerMinCalls.Load() < p.GammaProbes.Load() {
		t.Errorf("innermin_calls = %d < gamma_probes = %d: every probe minimizes",
			p.InnerMinCalls.Load(), p.GammaProbes.Load())
	}
	if p.InnerCandidates.Load() == 0 || p.EnvelopeSegs.Load() == 0 {
		t.Errorf("candidates = %d, segments = %d, want both > 0",
			p.InnerCandidates.Load(), p.EnvelopeSegs.Load())
	}
	// The scalar entry point runs on the batched table-driven kernel, so
	// every γ probe is also a batch probe.
	if b, g := p.GammaBatchProbes.Load(), p.GammaProbes.Load(); b < g {
		t.Errorf("gamma_batch_probes = %d < gamma_probes = %d: scalar path must price through the tables", b, g)
	}
	// Memo hits depend on whether the refinement lands back on probed
	// gammas; only the invariant is asserted, not a workload count.
	if got := p.GammaMemoHits.Load(); got < 0 {
		t.Errorf("gamma_memo_hits = %d, want >= 0", got)
	}
}

func TestOptProbeCountsAlphaAndEDF(t *testing.T) {
	p := testProbe(t)
	build := func(alpha float64) (PathConfig, error) {
		cfg := paperPathConfig(2, 0)
		cfg.Through.Alpha = alpha
		cfg.Cross.Alpha = alpha
		return cfg, nil
	}
	if _, err := OptimizeAlpha(build, 1e-9, 1e-3, 50); err != nil {
		t.Fatal(err)
	}
	if got := p.AlphaSweeps.Load(); got != 1 {
		t.Errorf("alpha_sweeps = %d, want 1", got)
	}
	if p.AlphaProbes.Load() == 0 {
		t.Error("alpha_probes = 0, want > 0")
	}

	if _, _, err := EDFProvisioned(paperPathConfig(2, 0), 1e-9, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := p.EDFBisections.Load(); got == 0 {
		t.Error("edf_bisections = 0, want > 0")
	}

	if _, err := AdditiveBound(paperPathConfig(2, 0), 1e-9); err != nil {
		t.Fatal(err)
	}
	if got := p.AdditiveProbes.Load(); got < 10 {
		t.Errorf("additive_probes = %d, want a sweep's worth (>= 10)", got)
	}
}

// TestDelayBoundCtxParity: the traced entry points must return exactly
// what the untraced ones do — tracing is observation, never behaviour.
func TestDelayBoundCtxParity(t *testing.T) {
	cfg := paperPathConfig(4, 10)
	plain, err := DelayBound(cfg, 1e-9)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	ctx, root := tr.Root(context.Background(), "test")
	traced, err := DelayBoundCtx(ctx, cfg, 1e-9)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if traced.D != plain.D || traced.Gamma != plain.Gamma || traced.Sigma != plain.Sigma {
		t.Errorf("traced (D=%g γ=%g σ=%g) != plain (D=%g γ=%g σ=%g)",
			traced.D, traced.Gamma, traced.Sigma, plain.D, plain.Gamma, plain.Sigma)
	}
	tree := tr.Tree()
	if tree == nil {
		t.Fatal("traced run produced no spans")
	}
	// The span tree must reach the inner minimization through the final
	// winning gamma evaluation.
	var find func(n *obs.SpanNode, name string) bool
	find = func(n *obs.SpanNode, name string) bool {
		if n.Name == name {
			return true
		}
		for _, c := range n.Children {
			if find(c, name) {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"DelayBound", "delayBoundAtGamma", "innerMinimize"} {
		if !find(tree, want) {
			t.Errorf("span tree missing %q", want)
		}
	}
}

func TestEDFAndAdditiveCtxParity(t *testing.T) {
	cfg := paperPathConfig(3, 0)
	tr := obs.NewTracer()
	ctx, root := tr.Root(context.Background(), "test")
	defer root.End()

	plainE, ratioDelta, err := EDFProvisioned(cfg, 1e-9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tracedE, tDelta, err := EDFProvisionedCtx(ctx, cfg, 1e-9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tracedE.D != plainE.D || tDelta != ratioDelta {
		t.Errorf("EDF traced (D=%g Δ=%g) != plain (D=%g Δ=%g)", tracedE.D, tDelta, plainE.D, ratioDelta)
	}

	plainA, err := AdditiveBound(cfg, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	tracedA, err := AdditiveBoundCtx(ctx, cfg, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if tracedA.D != plainA.D || len(tracedA.PerNode) != len(plainA.PerNode) {
		t.Errorf("additive traced D=%g (%d nodes) != plain D=%g (%d nodes)",
			tracedA.D, len(tracedA.PerNode), plainA.D, len(plainA.PerNode))
	}
}

// TestScratchThetaNotAliased: EDFProvisioned reuses one Scratch across
// its bisection; the returned Theta must survive later Scratch reuse.
func TestScratchThetaNotAliased(t *testing.T) {
	cfg := paperPathConfig(3, 0)
	res, _, err := EDFProvisioned(cfg, 1e-9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), res.Theta...)
	// Another solve with different parameters would overwrite an aliased
	// Theta backing array.
	if _, _, err := EDFProvisioned(paperPathConfig(5, 0), 1e-9, 0.25); err != nil {
		t.Fatal(err)
	}
	for i := range saved {
		if res.Theta[i] != saved[i] {
			t.Fatalf("Theta[%d] changed from %g to %g after an unrelated solve (aliased scratch)",
				i, saved[i], res.Theta[i])
		}
	}
	if len(saved) == 0 || math.IsNaN(saved[0]) {
		t.Fatalf("Theta = %v, want per-node values", saved)
	}
}
