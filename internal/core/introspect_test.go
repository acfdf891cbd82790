package core

import (
	"context"
	"math"
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/obs"
)

// testProbe installs an OptProbe backed by a private registry and
// returns it; the probe is uninstalled when the test ends so other
// tests see the disabled (nil) seam.
func testProbe(t *testing.T) *OptProbe {
	t.Helper()
	r := obs.NewRegistry()
	p := &OptProbe{
		DelayBoundCalls:   r.Counter("delaybound_calls", "", nil),
		GammaProbes:       r.Counter("gamma_probes", "", nil),
		GammaBatchProbes:  r.Counter("gamma_batch_probes", "", nil),
		InnerMinCalls:     r.Counter("innermin_calls", "", nil),
		InnerCandidates:   r.Counter("innermin_candidates", "", nil),
		InnerReplays:      r.Counter("innermin_replays", "", nil),
		EnvelopeSegs:      r.Counter("envelope_segments", "", nil),
		AlphaSweeps:       r.Counter("alpha_sweeps", "", nil),
		AlphaProbes:       r.Counter("alpha_probes", "", nil),
		AlphaSkips:        r.Counter("alpha_probes_skipped", "", nil),
		EDFBisections:     r.Counter("edf_bisections", "", nil),
		AdditiveProbes:    r.Counter("additive_probes", "", nil),
		PricerBuilds:      r.Counter("path_pricer_builds", "", nil),
		SigmaReuses:       r.Counter("sigma_reuses", "", nil),
		GammaSkips:        r.Counter("gamma_probes_skipped", "", nil),
		IntervalDecisions: r.Counter("edf_interval_decisions", "", nil),
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
	// Every probe minimizes, and a plain search tries no interval bound.
	if p.InnerMinCalls.Load() != p.GammaProbes.Load() || p.IntervalDecisions.Load() != 0 {
		t.Errorf("innermin_calls = %d, gamma_probes = %d, edf_interval_decisions = %d: want equal calls and probes, no decision",
			p.InnerMinCalls.Load(), p.GammaProbes.Load(), p.IntervalDecisions.Load())
	}
	if p.InnerCandidates.Load() == 0 || p.EnvelopeSegs.Load() == 0 {
		t.Errorf("candidates = %d, segments = %d, want both > 0",
			p.InnerCandidates.Load(), p.EnvelopeSegs.Load())
	}
	// The screen keeps at least each solve's minimum for the exact
	// sweep, and at most every candidate.
	if r, n, c := p.InnerReplays.Load(), p.InnerCandidates.Load(), p.InnerMinCalls.Load(); r < c || r > n {
		t.Errorf("innermin_replays = %d, want between innermin_calls = %d and innermin_candidates = %d", r, c, n)
	}
	// The scalar entry point runs on the batched table-driven kernel, so
	// every γ probe is also a batch probe.
	if b, g := p.GammaBatchProbes.Load(), p.GammaProbes.Load(); b < g {
		t.Errorf("gamma_batch_probes = %d < gamma_probes = %d: scalar path must price through the tables", b, g)
	}
	// Every search builds its own path table, whatever the Scratch
	// priced before; only an EDF fixed point shares one table among its
	// searches.
	if got := p.PricerBuilds.Load(); got != 1 {
		t.Errorf("path_pricer_builds = %d for one search, want 1", got)
	}
	before := p.PricerBuilds.Load()
	var s Scratch
	for _, delta := range []float64{0, 5, math.Inf(1)} {
		cfg.Delta0c = delta
		if _, err := s.DelayBound(context.Background(), cfg, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.PricerBuilds.Load() - before; got != 3 {
		t.Errorf("path_pricer_builds = %d over three searches of one traffic, want 3", got)
	}
	before = p.PricerBuilds.Load()
	if _, _, err := s.edfProvisioned(context.Background(), cfg, 1e-9, 10); err != nil {
		t.Fatal(err)
	}
	if got := p.PricerBuilds.Load() - before; got != 1 {
		t.Errorf("path_pricer_builds = %d for one EDF fixed point, want 1", got)
	}
}

// TestSearchesPriceEachProbeOnce pins the cost model that lets the
// analytic core run without memos: neither search revisits a point, so
// every γ and every α is priced once. DelayBound's γ search probes 48
// grid points and 2 + 59 golden-section points (the last step's point
// is never read, so never probed), then prices the refined γ in full,
// and the grid's best again when the refinement does not beat it; the
// additive baseline's search probes 48 + 2 + 49. The α sweep probes 41
// grid points, 2 + 35 golden-section points and the refined α. Each
// recorded search is checked against the probe counters of the entry
// point that runs it, so the test follows their parameters.
func TestSearchesPriceEachProbeOnce(t *testing.T) {
	p := testProbe(t)
	ctx := context.Background()
	const eps = 1e-9
	distinct := func(what string, seen map[float64]int, want int) {
		t.Helper()
		for x, n := range seen {
			if n > 1 {
				t.Errorf("%s %g priced %d times", what, x, n)
			}
		}
		if len(seen) != want {
			t.Errorf("%d distinct %s probes, want %d", len(seen), what, want)
		}
	}

	for _, delta := range schedulerDeltas {
		for _, h := range []int{1, 4, 20} {
			cfg := paperPathConfig(h, delta)
			var rec Scratch
			rec.buildPricer(cfg)
			probed := map[float64]int{}
			var full []float64
			gmax := cfg.GammaMax()
			_, err := gammaSearch(ctx, gmax, gmax/49, 60, nil,
				func(n int, g float64) float64 { probed[g]++; return rec.dOnlyAtGamma(cfg, eps, nil, n, g) },
				func(g float64) (Result, float64, error) {
					full = append(full, g)
					r, err := rec.delayBoundAtGamma(nil, cfg, eps, g)
					return r, r.D, err
				}, nil)
			if err != nil {
				t.Fatal(err)
			}
			distinct("γ", probed, 48+61)
			if len(full) == 2 && probed[full[1]] == 0 {
				t.Errorf("fallback priced γ %g, which is not a grid point", full[1])
			}
			if len(full) < 1 || len(full) > 2 {
				t.Errorf("full pricings = %d, want 1 or 2", len(full))
			}
			before := p.GammaProbes.Load()
			if _, err := new(Scratch).DelayBound(ctx, cfg, eps); err != nil {
				t.Fatal(err)
			}
			if got, want := p.GammaProbes.Load()-before, int64(len(probed)+len(full)); got != want {
				t.Errorf("h=%d Δ=%g: DelayBound priced %d γ, the recorded search %d", h, delta, got, want)
			}
		}
	}

	cfg := paperPathConfig(10, math.Inf(1))
	tab := new(Scratch).buildAddTable(cfg)
	probed := map[float64]int{}
	gmax := (cfg.C - cfg.Through.Rho - cfg.Cross.Rho) / float64(cfg.H)
	if _, err := gammaSearch(ctx, gmax, gmax/48, 50, nil,
		func(_ int, g float64) float64 {
			probed[g]++
			if r, err := tab.atGamma(cfg, eps, g, false); err == nil {
				return r.D
			}
			return math.Inf(1)
		},
		func(g float64) (AdditiveResult, float64, error) {
			r, err := tab.atGamma(cfg, eps, g, true)
			return r, r.D, err
		}, nil); err != nil {
		t.Fatal(err)
	}
	distinct("additive γ", probed, 48+51)
	before := p.AdditiveProbes.Load()
	if _, err := AdditiveBound(cfg, eps); err != nil {
		t.Fatal(err)
	}
	if got := p.AdditiveProbes.Load() - before; got != int64(len(probed)) {
		t.Errorf("AdditiveBound priced %d γ, the recorded search %d", got, len(probed))
	}

	m := envelope.PaperSource()
	for _, delta := range []float64{0, math.Inf(1), -40} {
		alphas := map[float64]int{}
		before := p.AlphaProbes.Load()
		_, _, err := OptimizeAlphaFunc(ctx, func(ctx context.Context, a float64) (float64, struct{}, error) {
			alphas[a]++
			through, err := m.EBBAggregate(50, a)
			if err != nil {
				return 0, struct{}{}, err
			}
			cross, err := m.EBBAggregate(100, a)
			if err != nil {
				return 0, struct{}{}, err
			}
			r, err := DelayBoundCtx(ctx, PathConfig{H: 4, C: 100, Through: through, Cross: cross, Delta0c: delta}, eps)
			return r.D, struct{}{}, err
		}, 1e-3, 50)
		if err != nil {
			t.Fatal(err)
		}
		distinct("α", alphas, 41+37+1)
		if got := p.AlphaProbes.Load() - before; got != int64(len(alphas)) {
			t.Errorf("alpha_probes = %d, the recorded sweep priced %d", got, len(alphas))
		}
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
	// The bound falls as α grows here, so the floor skips grid points;
	// priced plus skipped is what the sweep prices without a floor: 41
	// grid points, 37 golden-section points and the final probe.
	if priced, skipped := p.AlphaProbes.Load(), p.AlphaSkips.Load(); skipped == 0 || priced+skipped != 41+37+1 {
		t.Errorf("alpha_probes = %d, alpha_probes_skipped = %d: want some skipped and 79 in all", priced, skipped)
	}

	solves, probes := p.InnerMinCalls.Load(), p.GammaProbes.Load()
	if _, _, err := EDFProvisioned(paperPathConfig(2, 0), 1e-9, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := p.EDFBisections.Load(); got == 0 {
		t.Error("edf_bisections = 0, want > 0")
	}
	// Each interval decision costs at least one bound solve, an inner
	// solve that is no γ probe.
	bounds := (p.InnerMinCalls.Load() - solves) - (p.GammaProbes.Load() - probes)
	if got := p.IntervalDecisions.Load(); got == 0 || bounds < got {
		t.Errorf("edf_interval_decisions = %d with %d bound solves, want > 0 and <= the solves", got, bounds)
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
