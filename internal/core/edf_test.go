package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"deltasched/internal/envelope"
)

// refEDFProvisioned is the EDF fixed point without the grid floor: the
// same bisection over plain Scratch.DelayBound searches, each pricing
// the whole γ grid and its golden section. It is the oracle of
// TestEDFProvisionedMatchesUnflooredBisection.
func refEDFProvisioned(cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	var s Scratch
	ctx := context.Background()
	bmuxCfg := cfg
	bmuxCfg.Delta0c = math.Inf(1)
	bmux, err := s.DelayBound(ctx, bmuxCfg, eps)
	if err != nil {
		return Result{}, 0, err
	}
	f := func(d float64) (float64, error) {
		trial := cfg
		trial.Delta0c = d / float64(cfg.H) * (1 - ratio)
		r, err := s.DelayBound(ctx, trial, eps)
		return r.D, err
	}
	lo, hi := 0.0, bmux.D*(1+1e-9)
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		fm, err := f(mid)
		if err != nil {
			return Result{}, 0, err
		}
		if fm > mid {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-9*hi {
			break
		}
	}
	final := cfg
	final.Delta0c = hi / float64(cfg.H) * (1 - ratio)
	out, err := s.DelayBound(ctx, final, eps)
	if err != nil {
		return Result{}, 0, err
	}
	out.Theta = append([]float64(nil), out.Theta...)
	return out, out.D / float64(cfg.H), nil
}

// TestEDFProvisionedMatchesUnflooredBisection pins the grid floor's
// exactness: EDFProvisioned, which skips grid probes and ends steps
// early, returns D, σ, γ, X, θ and d*₀ bit for bit equal to a
// bisection over full searches, for deadline ratios on both sides of
// 1 (the floor at hi and at lo) over random traffic.
func TestEDFProvisionedMatchesUnflooredBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := testProbe(t)
	for _, h := range []int{1, 2, 5, 30, 480} {
		draws := 3
		if h == 480 {
			draws = 1
		}
		for _, ratio := range []float64{0.25, 0.5, 2, 10} {
			for k := 0; k < draws; k++ {
				cfg := PathConfig{
					H:       h,
					C:       100,
					Through: envelope.EBB{M: 1 + rng.Float64(), Rho: 5 + 20*rng.Float64(), Alpha: 0.02 + 0.3*rng.Float64()},
					Cross:   envelope.EBB{M: 1 + rng.Float64(), Rho: 5 + 40*rng.Float64(), Alpha: 0.02 + 0.3*rng.Float64()},
				}
				want, wantD0, err := refEDFProvisioned(cfg, 1e-9, ratio)
				if err != nil {
					t.Fatalf("H=%d ratio=%g: oracle: %v", h, ratio, err)
				}
				got, gotD0, err := EDFProvisioned(cfg, 1e-9, ratio)
				if err != nil {
					t.Fatalf("H=%d ratio=%g: %v", h, ratio, err)
				}
				sameBits(t, "D", got.D, want.D)
				sameBits(t, "Sigma", got.Sigma, want.Sigma)
				sameBits(t, "Gamma", got.Gamma, want.Gamma)
				sameBits(t, "X", got.X, want.X)
				sameBits(t, "d0", gotD0, wantD0)
				if len(got.Theta) != len(want.Theta) {
					t.Fatalf("H=%d ratio=%g: Theta length %d, want %d", h, ratio, len(got.Theta), len(want.Theta))
				}
				for i := range want.Theta {
					sameBits(t, "Theta", got.Theta[i], want.Theta[i])
				}
				if t.Failed() {
					t.Fatalf("H=%d ratio=%g cfg=%+v: the floored fixed point diverged from the oracle", h, ratio, cfg)
				}
			}
		}
	}
	if p.GammaSkips.Load() == 0 {
		t.Error("no grid probe was skipped: the floor never engaged")
	}
}

// TestInnerSolveMonotoneInDelta checks the property the grid floor
// rests on, over the inner solves of the screen's tests (every Δ
// regime, the plateaus, H up to 4096): along a ladder of finite Δ and
// +∞, at fixed (H, C, γ, ρ_c, σ), the computed minimum D(Δ₁) exceeds
// D(Δ₂) by at most 2E = floorMargin for Δ₁ <= Δ₂.
func TestInnerSolveMonotoneInDelta(t *testing.T) {
	var s Scratch
	solves, drops := 0, 0
	innerSolveDraws(t, func(h int, c, gamma, rhoc, delta, sigma float64) {
		if math.IsInf(delta, -1) {
			return // strict priority prices another σ; the floor never sees it
		}
		// The ladder spans both regimes, reaches the breakpoints' scale
		// σ/ch and −σ/ch, and keeps the draw's own Δ.
		r := sigma / c
		ladder := []float64{-1e3 * (1 + r), -2 * r, -r, -0.5 * r, -1e-3, 0, 1e-3, 0.5 * r, r, 2 * r, 1e3 * (1 + r), math.Inf(1), delta}
		sort.Float64s(ladder)
		prev, prevD := 0.0, math.NaN()
		for _, dl := range ladder {
			d, _ := s.innerSolve(h, c, gamma, rhoc, dl, sigma)
			solves++
			if m := floorMargin(h, c, rhoc, gamma, prevD); !math.IsNaN(m) && prevD-m > d {
				t.Fatalf("h=%d c=%g γ=%g ρc=%g σ=%g: D(Δ=%g) = %v exceeds D(Δ=%g) = %v by more than 2E = %g",
					h, c, gamma, rhoc, sigma, prev, prevD, dl, d, m)
			}
			if prevD > d {
				drops++ // a computed D that fell with Δ: only rounding
			}
			prev, prevD = dl, d
		}
	})
	if solves < 10000 {
		t.Fatalf("sweep degenerated: only %d solves ran", solves)
	}
	t.Logf("%d solves, %d rounding drops within 2E", solves, drops)
}

// FuzzInnerSolveMonotoneInDelta fuzzes the grid floor's premise: for
// Δ₁ <= Δ₂ (both finite or +∞) at fixed (H, C, γ, ρ_c, σ), the computed
// inner minimum D(Δ₁) is at most D(Δ₂) + 2E.
func FuzzInnerSolveMonotoneInDelta(f *testing.F) {
	f.Add(3, 100.0, 1.0, 40.0, -2.0, 0.5, 250.0)
	f.Add(30, 100.0, 1e-15, 35.0, -3.0, 0.0, 250.0)
	f.Add(480, 100.0, 0.05, 35.0, -30.0, -3.0, 250.0)
	f.Add(8, 120.0, 0.5, 60.0, 0.0, math.Inf(1), 500.0)
	f.Fuzz(func(t *testing.T, h int, c, gamma, rhoc, d1, d2, sigma float64) {
		if h < 1 || h > 512 {
			t.Skip()
		}
		for _, v := range []float64{c, gamma, rhoc, d1, d2, sigma} {
			if math.IsNaN(v) {
				t.Skip()
			}
		}
		if c <= 0 || c > 1e6 || gamma <= 0 || rhoc < 0 || sigma < 0 || sigma > 1e9 {
			t.Skip()
		}
		if c-rhoc-float64(h)*gamma <= 1e-6*c {
			t.Skip()
		}
		if math.IsInf(d1, -1) || math.IsInf(d2, -1) {
			t.Skip() // strict priority is another σ and never meets the floor
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		var s Scratch
		lo, _ := s.innerSolve(h, c, gamma, rhoc, d1, sigma)
		hi, _ := s.innerSolve(h, c, gamma, rhoc, d2, sigma)
		if m := floorMargin(h, c, rhoc, gamma, lo); !math.IsNaN(m) && lo-m > hi {
			t.Fatalf("D(Δ=%g) = %v exceeds D(Δ=%g) = %v by more than 2E = %g", d1, lo, d2, hi, m)
		}
	})
}

// TestEntryPointsRejectBadEps pins one ε contract at every exported
// entry point: a violation probability outside (0, 1), NaN included,
// is ErrBadConfig. EDFProvisioned also rejects a deadline ratio that is
// not positive and finite.
func TestEntryPointsRejectBadEps(t *testing.T) {
	cfg := paperPathConfig(3, 0)
	hetero := HeteroPath{Through: cfg.Through}
	for i := 0; i < cfg.H; i++ {
		hetero.Nodes = append(hetero.Nodes, NodeSpec{C: cfg.C, Cross: cfg.Cross, Delta: 0})
	}
	ctx := context.Background()
	entries := map[string]func(eps float64) error{
		"DelayBound":    func(eps float64) error { _, err := DelayBound(cfg, eps); return err },
		"DelayBoundCtx": func(eps float64) error { _, err := DelayBoundCtx(ctx, cfg, eps); return err },
		"Scratch.DelayBound": func(eps float64) error {
			_, err := new(Scratch).DelayBound(ctx, cfg, eps)
			return err
		},
		"DelayBoundAtGamma": func(eps float64) error {
			_, err := DelayBoundAtGamma(cfg, eps, cfg.GammaMax()/2)
			return err
		},
		"Scratch.DelayBoundAtGamma": func(eps float64) error {
			_, err := new(Scratch).DelayBoundAtGamma(cfg, eps, cfg.GammaMax()/2)
			return err
		},
		"Scratch.DelayBoundAtGammas": func(eps float64) error {
			_, err := new(Scratch).DelayBoundAtGammas(cfg, eps, []float64{cfg.GammaMax() / 2}, nil)
			return err
		},
		"AdditiveBound":    func(eps float64) error { _, err := AdditiveBound(cfg, eps); return err },
		"AdditiveBoundCtx": func(eps float64) error { _, err := AdditiveBoundCtx(ctx, cfg, eps); return err },
		"DelayBoundHetero": func(eps float64) error { _, err := DelayBoundHetero(hetero, eps); return err },
		"DelayBoundStatNode": func(eps float64) error {
			_, err := DelayBoundStatNode(cfg.C, cfg.Through, []StatFlow{{EBB: cfg.Cross, Delta: 0}}, eps)
			return err
		},
		"EDFProvisioned": func(eps float64) error { _, _, err := EDFProvisioned(cfg, eps, 10); return err },
	}
	for name, call := range entries {
		if err := call(1e-6); err != nil {
			t.Errorf("%s(ε = 1e-6): %v, want success", name, err)
		}
		for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1, 2} {
			if err := call(eps); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s(ε = %g): %v, want ErrBadConfig", name, eps, err)
			}
		}
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if _, _, err := EDFProvisioned(cfg, 1e-6, ratio); !errors.Is(err, ErrBadConfig) {
			t.Errorf("EDFProvisioned(ratio = %g): %v, want ErrBadConfig", ratio, err)
		}
	}
}
