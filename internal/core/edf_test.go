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

// TestEDFProvisionedMatchesUnflooredBisection pins the exactness of the
// grid floor and of the interval decision: EDFProvisioned, which skips
// grid probes and ends steps early, returns D, σ, γ, X, θ and d*₀ bit
// for bit equal to a bisection over full searches, for deadline ratios
// on both sides of 1 (the floor at hi and at lo) over random traffic,
// light and near saturation. Interval bounds settle steps toward both
// ends of the bracket here (an instrumented copy counted 1,097 toward
// lo and 315 toward hi in the light draws alone).
func TestEDFProvisionedMatchesUnflooredBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := testProbe(t)
	for _, h := range []int{1, 2, 5, 30, 480} {
		draws := 3
		if h == 480 {
			draws = 1
		}
		for _, ratio := range []float64{0.25, 0.5, 2, 10} {
			for k := 0; k <= draws; k++ {
				cfg := PathConfig{
					H:       h,
					C:       100,
					Through: envelope.EBB{M: 1 + rng.Float64(), Rho: 5 + 20*rng.Float64(), Alpha: 0.02 + 0.3*rng.Float64()},
					Cross:   envelope.EBB{M: 1 + rng.Float64(), Rho: 5 + 40*rng.Float64(), Alpha: 0.02 + 0.3*rng.Float64()},
				}
				if k == draws { // the last draw loads the path to 99.9%
					cfg.Cross.Rho = 99.9 - cfg.Through.Rho
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
	if p.IntervalDecisions.Load() == 0 {
		t.Error("no step was settled by an interval bound")
	}
}

// TestEDFProvisionedUnstableBuildsNoTable pins where an unstable load
// fails: before the fixed point builds its pricing table, with the
// error text of the BMUX bracket's search.
func TestEDFProvisionedUnstableBuildsNoTable(t *testing.T) {
	p := testProbe(t)
	cfg := paperPathConfig(3, 0)
	cfg.Cross.Rho = 90 // ρ + ρ_c > C
	bmux := cfg
	bmux.Delta0c = math.Inf(1)
	_, want := DelayBound(bmux, 1e-9)
	before := p.PricerBuilds.Load()
	_, _, err := EDFProvisioned(cfg, 1e-9, 10)
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("EDFProvisioned at an unstable load: %v, want ErrUnstable", err)
	}
	if want == nil || err.Error() != "core: EDF provisioning bracket: "+want.Error() {
		t.Errorf("error %q, want the bracket's %q", err, want)
	}
	if got := p.PricerBuilds.Load() - before; got != 0 {
		t.Errorf("path_pricer_builds = %d for an unstable load, want 0", got)
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

// FuzzEDFProvisionedReusedScratch solves random traffics A, B, A as EDF
// fixed points on one Scratch. The two solves of A must agree bit for
// bit in D, σ, γ, X, θ and d*₀ and replay as many σ: a fixed point
// reads nothing that the one before it left on the Scratch.
func FuzzEDFProvisionedReusedScratch(f *testing.F) {
	f.Add(5, 15.0, 35.0, 0.1, 0.1, 3, 20.0, 30.0, 0.2, 0.2, 10.0)
	f.Add(4, 10.0, 20.0, 0.1, 0.1, 4, 10.0, 20.0, 0.2, 0.1, 0.5)
	f.Add(30, 20.0, 40.0, 0.02, 0.05, 1, 40.0, 10.0, 0.5, 0.3, 2.0)
	f.Fuzz(func(t *testing.T, hA int, rhoA, rhocA, alphaA, alphacA float64,
		hB int, rhoB, rhocB, alphaB, alphacB, ratio float64) {
		path := func(h int, rho, rhoc, alpha, alphac float64) PathConfig {
			ok := func(a float64) bool { return a >= 1e-3 && a <= 10 }
			if h < 1 || h > 40 || !(rho > 0) || !(rhoc >= 0) || !(rho+rhoc < 95) || !ok(alpha) || !ok(alphac) {
				t.Skip()
			}
			return PathConfig{H: h, C: 100,
				Through: envelope.EBB{M: 1, Rho: rho, Alpha: alpha},
				Cross:   envelope.EBB{M: 1, Rho: rhoc, Alpha: alphac}}
		}
		a := path(hA, rhoA, rhocA, alphaA, alphacA)
		b := path(hB, rhoB, rhocB, alphaB, alphacB)
		if !(ratio >= 1e-2 && ratio <= 100) {
			t.Skip()
		}
		p := testProbe(t)
		var s Scratch
		solve := func(cfg PathConfig) (Result, float64, int64, error) {
			before := p.SigmaReuses.Load()
			r, d0, err := s.edfProvisioned(context.Background(), cfg, 1e-9, ratio)
			r.Theta = append([]float64(nil), r.Theta...)
			return r, d0, p.SigmaReuses.Load() - before, err
		}
		first, d0, reuses, err := solve(a)
		solve(b)
		again, d0Again, reusesAgain, errAgain := solve(a)
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("A solved with error %v, then %v after B", err, errAgain)
		}
		if err != nil {
			return
		}
		sameResult(t, "A after B", again, first)
		sameBits(t, "A after B d0", d0Again, d0)
		if reusesAgain != reuses {
			t.Errorf("A replayed %d σ, then %d after B", reuses, reusesAgain)
		}
	})
}

// intervalDraws calls f with random path traffics and γ brackets
// a <= g <= b inside (0, γmax): both finite-Δ regimes and BMUX, H up to
// 4096 (only without -short), plateaus of equal ch_i (γ near 1e-15),
// loads near saturation and brackets from a few ulps to the whole
// range.
func intervalDraws(t *testing.T, f func(cfg PathConfig, eps, a, g, b float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(3232))
	for _, h := range []int{1, 2, 3, 5, 10, 30, 64, 480, 4096} {
		if h > 480 && testing.Short() {
			continue
		}
		trials := 30
		switch {
		case h > 480:
			trials = 2
		case h > 64:
			trials = 6
		}
		for _, delta := range schedulerDeltas {
			if math.IsInf(delta, -1) {
				continue // strict priority prices another σ; no bisection step has it
			}
			for trial := 0; trial < trials; trial++ {
				load := 0.2 + 0.75*rng.Float64()
				if trial%5 == 0 {
					load = 1 - 1e-6*rng.Float64() // near saturation
				}
				rho := load * 100 * rng.Float64()
				cfg := PathConfig{
					H:       h,
					C:       100,
					Through: envelope.EBB{M: 1 + 3*rng.Float64(), Rho: rho, Alpha: 0.005 + rng.Float64()},
					Cross:   envelope.EBB{M: 1 + 3*rng.Float64(), Rho: load*100 - rho, Alpha: 0.005 + rng.Float64()},
					Delta0c: delta * (1 + 50*rng.Float64()),
				}
				gmax := cfg.GammaMax()
				if !(gmax > 0) {
					continue
				}
				eps := math.Pow(10, -2-10*rng.Float64())
				var a, g, b float64
				switch trial % 4 {
				case 0: // a few ulps wide
					a = gmax * (0.02 + 0.96*rng.Float64())
					g = math.Nextafter(a, gmax)
					b = math.Nextafter(math.Nextafter(g, gmax), gmax)
				case 1: // a plateau of equal ch_i
					a = 1e-15 * (1 + rng.Float64())
					g, b = 1.5*a, 2*a
				case 2: // anywhere in the range
					x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
					sort.Float64s(x)
					a, g, b = gmax*(1e-9+x[0]*(1-2e-9)), gmax*(1e-9+x[1]*(1-2e-9)), gmax*(1e-9+x[2]*(1-2e-9))
				default: // as narrow as a late golden-section bracket
					w := gmax * 1e-6 * rng.Float64()
					a = gmax * (0.05 + 0.9*rng.Float64())
					g, b = a+w*rng.Float64(), a+w
				}
				if !(0 < a && a <= g && g <= b && b < gmax) {
					continue
				}
				f(cfg, eps, a, g, b)
			}
		}
	}
}

// TestIntervalBoundsBracketSearch pins the interval decision's premise
// (DESIGN.md §16, "Interval bounds end the golden section"): for every γ
// g in a bracket [a, b], the delay the search computes at g, with σ
// priced as it prices it, lies within the bracket's interval bounds,
// margins included, and its σ within 2δσ of σ at the bracket's ends.
func TestIntervalBoundsBracketSearch(t *testing.T) {
	var s Scratch
	n, decidable := 0, 0
	intervalDraws(t, func(cfg PathConfig, eps, a, g, b float64) {
		s.buildPricer(cfg)
		sigma := func(x float64) float64 { return s.pathBound(cfg, x).SigmaFor(eps) }
		sa, sg, sb := sigma(a), sigma(g), sigma(b)
		if slo := sb - 2*sigmaSlack(cfg.H, cfg.Through.Alpha, cfg.Cross.Alpha, a, sb); slo > sg {
			t.Fatalf("cfg=%+v a=%v g=%v b=%v: σ(g) = %v below σ(b) − 2δσ = %v", cfg, a, g, b, sg, slo)
		}
		if shi := sa + 2*sigmaSlack(cfg.H, cfg.Through.Alpha, cfg.Cross.Alpha, a, sa); sg > shi {
			t.Fatalf("cfg=%+v a=%v g=%v b=%v: σ(g) = %v above σ(a) + 2δσ = %v", cfg, a, g, b, sg, shi)
		}
		d := s.dOnlyAtGamma(cfg, eps, nil, 0, g)
		lo := s.intervalBound(cfg, eps, nil, a, b, -1, -1, false)
		hi := s.intervalBound(cfg, eps, nil, a, b, -1, -1, true)
		if lo > d || d > hi {
			t.Fatalf("cfg=%+v eps=%g a=%v g=%v b=%v: D(g) = %v outside [%v, %v]", cfg, eps, a, g, b, d, lo, hi)
		}
		n++
		if !math.IsNaN(lo) && !math.IsNaN(hi) {
			decidable++
		}
	})
	t.Logf("%d brackets, %d with both bounds", n, decidable)
	if n < 1000 || decidable < n/2 {
		t.Fatalf("sweep degenerated: %d brackets, %d with both bounds", n, decidable)
	}
}

// FuzzIntervalBounds fuzzes TestIntervalBoundsBracketSearch's
// inequality: D(g) within the interval bounds of [a, b] for a <= g <= b.
func FuzzIntervalBounds(f *testing.F) {
	f.Add(5, 15.0, 35.0, 0.1, 0.3, 2.0, 1.0, 1e-9, 0.3, 0.5, 0.7)
	f.Add(30, 20.0, 40.0, 0.02, 0.05, -3.0, 2.0, 1e-6, 0.5, 0.5, 0.5000001)
	f.Add(480, 30.0, 30.0, 0.5, 0.5, 0.0, 1.0, 1e-3, 1e-9, 2e-9, 3e-9)
	f.Add(2, 49.0, 50.9, 1.0, 0.01, 40.0, 3.0, 1e-9, 0.1, 0.9, 0.95)
	f.Fuzz(func(t *testing.T, h int, rho, rhoc, alpha, alphac, delta, m, eps, xa, xg, xb float64) {
		ok := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
		if !ok(float64(h), 1, 512) || !ok(rho, 0, 100) || !ok(rhoc, 0, 100) || !ok(alpha, 1e-3, 10) ||
			!ok(alphac, 1e-3, 10) || math.IsNaN(delta) || math.IsInf(delta, -1) || !ok(m, 1, 1e3) ||
			!(eps > 0 && eps < 1) || !(0 < xa && xa <= xg && xg <= xb && xb < 1) {
			t.Skip()
		}
		cfg := PathConfig{H: h, C: 100,
			Through: envelope.EBB{M: m, Rho: rho, Alpha: alpha},
			Cross:   envelope.EBB{M: 1, Rho: rhoc, Alpha: alphac},
			Delta0c: delta}
		gmax := cfg.GammaMax()
		if !(gmax > 0) {
			t.Skip()
		}
		a, g, b := xa*gmax, xg*gmax, xb*gmax
		var s Scratch
		s.buildPricer(cfg)
		d := s.dOnlyAtGamma(cfg, eps, nil, 0, g)
		lo := s.intervalBound(cfg, eps, nil, a, b, -1, -1, false)
		hi := s.intervalBound(cfg, eps, nil, a, b, -1, -1, true)
		if lo > d || d > hi {
			t.Fatalf("D(%v) = %v outside [%v, %v] over [%v, %v]", g, d, lo, hi, a, b)
		}
	})
}
