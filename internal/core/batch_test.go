package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
)

// This file pins the bit-identity contract of the table-driven kernels
// (ISSUE 9): pathBound through envelope.PathPricer, the regime-
// specialized innerSolve, and the additive decay-chain recursion must
// reproduce the scalar implementations they replaced bit for bit. The
// references below are verbatim copies of the pre-table code (modulo
// Scratch plumbing), so any drift in the kernels fails here rather than
// in the CSV goldens downstream.

// refThetaAt is the original closed-form per-hop θ^h(X) (Eq. 38).
func refThetaAt(ch, beta, delta, sigma, x float64) float64 {
	switch {
	case math.IsInf(delta, -1):
		return math.Max(0, sigma/ch-x)
	case delta <= 0:
		if x <= -delta {
			return math.Max(0, sigma/ch-x)
		}
		return math.Max(0, (sigma+beta*(x+delta))/ch-x)
	default:
		if (ch-beta)*x >= sigma {
			return 0
		}
		thetaA := sigma/(ch-beta) - x
		if thetaA <= delta {
			return thetaA
		}
		return (sigma+beta*(x+delta))/ch - x
	}
}

// refInnerMinimize is the original formula-per-hop breakpoint sweep.
func refInnerMinimize(h int, c, gamma, rhoc, delta, sigma float64) (d, xOpt float64) {
	best := math.Inf(1)
	for _, x := range refCandidates(h, c, gamma, rhoc, delta, sigma) {
		if x < 0 || math.IsNaN(x) {
			continue
		}
		total := refTotal(h, c, gamma, rhoc, delta, sigma, x)
		switch tol := 1e-12 * (1 + math.Abs(total)); {
		case math.IsInf(best, 1):
			best, xOpt = total, x
		case total < best-tol:
			best, xOpt = total, x
		case total <= best+tol && x > xOpt:
			xOpt = x
		}
	}
	return best, xOpt
}

// refCandidates is refInnerMinimize's breakpoint enumeration.
func refCandidates(h int, c, gamma, rhoc, delta, sigma float64) []float64 {
	beta := rhoc + gamma
	cands := []float64{0}
	for i := 1; i <= h; i++ {
		ch := c - float64(i-1)*gamma
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
	return cands
}

// refTotal is refInnerMinimize's objective d = X + Σθ^h at one X.
func refTotal(h int, c, gamma, rhoc, delta, sigma, x float64) float64 {
	beta := rhoc + gamma
	total := x
	for i := 1; i <= h; i++ {
		total += refThetaAt(c-float64(i-1)*gamma, beta, delta, sigma, x)
	}
	return total
}

// refPathBound is the original materialize-and-Merge path bound.
func refPathBound(h int, through, cross envelope.EBB, gamma float64, excludeCross bool) (envelope.ExpBound, error) {
	bg := envelope.ExpBound{M: through.M / (1 - math.Exp(-through.Alpha*gamma)), Alpha: through.Alpha}
	if excludeCross {
		return bg, nil
	}
	bc := envelope.ExpBound{M: cross.M / (1 - math.Exp(-cross.Alpha*gamma)), Alpha: cross.Alpha}
	bounds := append([]envelope.ExpBound{}, bg, bc)
	if h > 1 {
		q := 1 - math.Exp(-bc.Alpha*gamma)
		per := envelope.ExpBound{M: bc.M / q, Alpha: bc.Alpha}
		for i := 1; i < h; i++ {
			bounds = append(bounds, per)
		}
	}
	return envelope.Merge(bounds...)
}

// refAdditiveAtGamma is the original SamplePath + Merge per-node
// recursion of the additive analysis.
func refAdditiveAtGamma(cfg PathConfig, eps, gamma float64, collectPerNode bool) (AdditiveResult, error) {
	if gamma <= 0 {
		return AdditiveResult{}, badConfig("gamma must be positive, got %g", gamma)
	}
	perNodeEps := eps / float64(cfg.H)
	left := cfg.C - cfg.Cross.Rho - gamma
	if left <= 0 {
		return AdditiveResult{}, ErrUnstable
	}
	_, bs, err := cfg.Cross.SamplePath(gamma)
	if err != nil {
		return AdditiveResult{}, err
	}

	through := cfg.Through
	res := AdditiveResult{Gamma: gamma}
	if collectPerNode {
		res.PerNode = make([]float64, 0, cfg.H)
	}
	for h := 1; h <= cfg.H; h++ {
		if through.Rho+gamma > left {
			return AdditiveResult{}, ErrUnstable
		}
		_, bg, err := through.SamplePath(gamma)
		if err != nil {
			return AdditiveResult{}, err
		}
		merged, err := envelope.Merge(bg, bs)
		if err != nil {
			return AdditiveResult{}, err
		}
		sigma := merged.SigmaFor(perNodeEps)
		d := sigma / left
		if collectPerNode {
			res.PerNode = append(res.PerNode, d)
		}
		res.D += d

		through = envelope.EBB{
			M:     math.Max(1, merged.M),
			Rho:   through.Rho + gamma,
			Alpha: merged.Alpha,
		}
	}
	return res, nil
}

// sameBits requires exact bit equality (distinguishing ±0, catching any
// last-ulp drift the closeness helpers would wave through).
func sameBits(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: got %v (%#x), want %v (%#x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// schedulerDeltas spans every Δ regime of the specialized sweep: strict
// priority, FIFO, BMUX, and finite EDF offsets of both signs.
var schedulerDeltas = []float64{math.Inf(-1), math.Inf(1), 0, -0.7, -3, 1e-3, 0.4, 2.5, -1e-3}

// innerSolveDraws calls f on the inner solves the screen's tests share:
// random (C, γ, ρ_c, σ) at every Δ regime for H from 1 to 4096 (fewer
// trials where the O(H²) reference dominates; H = 4096 only without
// -short), and at each H the C = 100 plateaus, where the rates
// ch_i = C − float64(i)·γ round equal over runs of adjacent hops (~14
// at γ = 1e-15, ~3 at 5e-15), so candidates repeat and the boundary
// searches meet runs of equal predicates.
func innerSolveDraws(t *testing.T, f func(h int, c, gamma, rhoc, delta, sigma float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(909))
	plateau := rand.New(rand.NewSource(910))
	for _, h := range []int{1, 2, 3, 5, 10, 20, 33, 64, 128, 480, 960, 4096} {
		if h > 960 && testing.Short() {
			continue
		}
		trials, plateaus := 40, 4
		switch {
		case h > 480:
			trials, plateaus = 2, 2
		case h > 128:
			trials = 8
		}
		for _, delta := range schedulerDeltas {
			for trial := 0; trial < trials; trial++ {
				c := 50 + 100*rng.Float64()
				rhoc := 60 * rng.Float64()
				// Keep every hop's leftover rate positive: γ below
				// (c−rhoc)/h leaves ch_i − β > 0 for all i.
				gamma := rng.Float64() * (c - rhoc) / float64(h+1) * 0.95
				if gamma <= 0 {
					continue
				}
				sigma := 500 * rng.Float64() * rng.Float64()
				if trial%7 == 0 {
					sigma = 0 // degenerate: empty backlog budget
				}
				f(h, c, gamma, rhoc, delta, sigma)
			}
			for _, gamma := range []float64{1e-15, 5e-15} {
				for trial := 0; trial < plateaus; trial++ {
					sigma := 500 * plateau.Float64() * plateau.Float64()
					if trial == 0 {
						sigma = 0
					}
					f(h, 100, gamma, 60*plateau.Float64(), delta, sigma)
				}
			}
		}
	}
}

func TestInnerSolveMatchesReference(t *testing.T) {
	var s Scratch
	n := 0
	innerSolveDraws(t, func(h int, c, gamma, rhoc, delta, sigma float64) {
		refD, refX := refInnerMinimize(h, c, gamma, rhoc, delta, sigma)
		gotD, gotX := s.innerSolve(h, c, gamma, rhoc, delta, sigma)
		sameBits(t, "d", gotD, refD)
		sameBits(t, "xOpt", gotX, refX)
		if t.Failed() {
			t.Fatalf("diverged at h=%d c=%g gamma=%g rhoc=%g delta=%g sigma=%g",
				h, c, gamma, rhoc, delta, sigma)
		}
		n++
	})
	if n < 1000 {
		t.Fatalf("sweep degenerated: only %d comparisons ran", n)
	}
}

// TestScreenDropsOnlyFarCandidates pins the invariant the screen's
// exactness rests on (DESIGN.md §16, "Screened candidates"): every
// candidate it drops has an exact total, summed hop by hop with
// refThetaAt, above the exact minimum m by more than (n+1)·τ with
// τ = 2e-12·(1+|m|). (D, X) can agree with the reference by luck where
// the band is too narrow; this fails wherever a drop breaks the
// invariant, for instance under an Eₖ that underestimates the rounding.
func TestScreenDropsOnlyFarCandidates(t *testing.T) {
	var s Scratch
	solves, drops := 0, 0
	innerSolveDraws(t, func(h int, c, gamma, rhoc, delta, sigma float64) {
		cands := refCandidates(h, c, gamma, rhoc, delta, sigma)
		totals := make([]float64, len(cands))
		m := math.Inf(1)
		for k, x := range cands {
			if x < 0 {
				continue // the sweep skips it
			}
			totals[k] = refTotal(h, c, gamma, rhoc, delta, sigma, x)
			m = math.Min(m, totals[k])
		}
		before := s.stats.innerReplays
		s.innerSolve(h, c, gamma, rhoc, delta, sigma)
		kept := s.cands[:s.stats.innerReplays-before]
		if len(s.cands) != len(cands) {
			t.Fatalf("h=%d Δ=%g: innerSolve enumerated %d candidates, the reference %d", h, delta, len(s.cands), len(cands))
		}
		// The survivors are a subsequence of the candidates, in order,
		// and equal candidates share one fate, so a greedy match finds
		// the dropped ones.
		band := float64(len(cands)+1) * 2e-12 * (1 + math.Abs(m))
		j := 0
		for k, x := range cands {
			if j < len(kept) && math.Float64bits(x) == math.Float64bits(kept[j]) {
				j++
				continue
			}
			drops++
			if x >= 0 && !(totals[k]-m > band) {
				t.Fatalf("h=%d c=%g γ=%g ρc=%g Δ=%g σ=%g: dropped X=%g with total %v, %g above the minimum %v; the band is %g",
					h, c, gamma, rhoc, delta, sigma, x, totals[k], totals[k]-m, m, band)
			}
		}
		if j != len(kept) {
			t.Fatalf("h=%d Δ=%g: the %d survivors are not a subsequence of the candidates", h, delta, len(kept))
		}
		solves++
	})
	if solves < 1000 || drops == 0 {
		t.Fatalf("screen test degenerated: %d solves, %d drops", solves, drops)
	}
}

// TestInnerSolveOverflowIsNaN pins innerSolve's domain at its float64
// end: at C = 1e-300 with σ = 1e9 every θ ratio σ/ch overflows, and
// innerSolve returns (NaN, NaN) under every Δ regime, as for its other
// unsafe inputs; the reference meets Inf − Inf there. A validated
// configuration reaches this region (delaybound -C 1e-300 -alpha 1e-300
// -n0 0 -nc 0), where NaN marks each γ probe infeasible.
func TestInnerSolveOverflowIsNaN(t *testing.T) {
	var s Scratch
	for _, delta := range schedulerDeltas {
		if d, x := s.innerSolve(3, 1e-300, 1e-303, 0, delta, 1e9); !math.IsNaN(d) || !math.IsNaN(x) {
			t.Errorf("Δ = %g: got (%g, %g), want (NaN, NaN)", delta, d, x)
		}
	}
}

// TestSigmaLogReplaysExactly pins who owns the σ log: the EDF fixed
// point, and nothing else. Plain DelayBound calls on one Scratch that
// differ only in Δ — the searches a fixed point makes — replay no σ,
// build one pricing table each and match a fresh Scratch bit for bit.
// An EDF fixed point run on the Scratch of a finished fixed point, whose
// traffic differs only in its decay and prefactor (so both probe the
// same γ grid with other σ), matches one on a fresh Scratch bit for bit
// in D, σ, γ, X, θ and d*₀, and replays as many σ: nothing of the first
// fixed point's log or grid floor carries over.
func TestSigmaLogReplaysExactly(t *testing.T) {
	p := testProbe(t)
	ctx := context.Background()
	through := envelope.EBB{M: 1, Rho: 10, Alpha: 0.1}
	cross := envelope.EBB{M: 1, Rho: 20, Alpha: 0.1}
	cfg := PathConfig{H: 4, C: 140, Through: through, Cross: cross}
	var s Scratch
	for _, delta := range []float64{0, -2.5, 3, math.Inf(1), math.Inf(-1), 0} {
		cfg.Delta0c = delta
		name := fmt.Sprintf("DelayBound at Δ = %g", delta)
		reuses, builds := p.SigmaReuses.Load(), p.PricerBuilds.Load()
		got, err := s.DelayBound(ctx, cfg, 1e-9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := p.SigmaReuses.Load() - reuses; n != 0 {
			t.Errorf("%s: %d σ replayed outside a fixed point, want 0", name, n)
		}
		if n := p.PricerBuilds.Load() - builds; n != 1 {
			t.Errorf("%s: %d pricing tables built, want 1", name, n)
		}
		want, err := new(Scratch).DelayBound(ctx, cfg, 1e-9)
		if err != nil {
			t.Fatalf("%s (fresh): %v", name, err)
		}
		sameResult(t, name, got, want)
	}

	other := cfg
	other.Through = envelope.EBB{M: 1.5, Rho: through.Rho, Alpha: 0.2}
	if other.GammaMax() != cfg.GammaMax() {
		t.Fatal("the two traffics no longer share a γ grid")
	}
	if _, _, err := s.edfProvisioned(ctx, other, 1e-9, 10); err != nil {
		t.Fatal(err)
	}
	edf := func(sc *Scratch) (Result, float64, int64) {
		before := p.SigmaReuses.Load()
		r, d0, err := sc.edfProvisioned(ctx, cfg, 1e-9, 10)
		if err != nil {
			t.Fatal(err)
		}
		return r, d0, p.SigmaReuses.Load() - before
	}
	got, gotD0, gotReuses := edf(&s)
	want, wantD0, wantReuses := edf(new(Scratch))
	sameResult(t, "EDF fixed point", got, want)
	sameBits(t, "EDF fixed point d0", gotD0, wantD0)
	if gotReuses != wantReuses || gotReuses == 0 {
		t.Errorf("EDF fixed point replayed %d σ after another fixed point, %d on a fresh Scratch; want equal and > 0",
			gotReuses, wantReuses)
	}
}

// sameResult requires two Results to agree bit for bit.
func sameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	sameBits(t, name+" D", got.D, want.D)
	sameBits(t, name+" Sigma", got.Sigma, want.Sigma)
	sameBits(t, name+" Gamma", got.Gamma, want.Gamma)
	sameBits(t, name+" X", got.X, want.X)
	sameBits(t, name+" Bound.M", got.Bound.M, want.Bound.M)
	sameBits(t, name+" Bound.Alpha", got.Bound.Alpha, want.Bound.Alpha)
	if len(got.Theta) != len(want.Theta) {
		t.Fatalf("%s: Theta length %d, want %d", name, len(got.Theta), len(want.Theta))
	}
	for k := range want.Theta {
		sameBits(t, name+" Theta", got.Theta[k], want.Theta[k])
	}
}

func TestPathBoundMatchesMergeReference(t *testing.T) {
	pairs := []struct{ through, cross envelope.EBB }{
		// same α, same M — the fully collapsed pricing path
		{envelope.EBB{M: 1, Rho: 15, Alpha: 0.1}, envelope.EBB{M: 1, Rho: 35, Alpha: 0.1}},
		// same α, different M
		{envelope.EBB{M: 2.5, Rho: 20, Alpha: 0.2}, envelope.EBB{M: 1, Rho: 30, Alpha: 0.2}},
		// different α
		{envelope.EBB{M: 1, Rho: 12, Alpha: 0.13}, envelope.EBB{M: 1.7, Rho: 41, Alpha: 0.31}},
	}
	var s Scratch
	for _, p := range pairs {
		for _, h := range []int{1, 2, 3, 7, 16} {
			for _, delta := range []float64{0, math.Inf(1), math.Inf(-1), -1.5} {
				cfg := PathConfig{H: h, C: 100, Through: p.through, Cross: p.cross, Delta0c: delta}
				s.buildPricer(cfg)
				for _, gamma := range []float64{1e-6, 0.01, 0.3, 1, 2.5, 4.4} {
					want, err := refPathBound(h, p.through, p.cross, gamma, math.IsInf(delta, -1))
					if err != nil {
						t.Fatalf("reference pathBound failed: %v", err)
					}
					got := s.pathBound(cfg, gamma)
					sameBits(t, "M", got.M, want.M)
					sameBits(t, "Alpha", got.Alpha, want.Alpha)
					if t.Failed() {
						t.Fatalf("diverged at h=%d delta=%g gamma=%g pair=%+v", h, delta, gamma, p)
					}
				}
			}
		}
	}
}

func TestAdditiveAtGammaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	var s Scratch
	for _, h := range []int{1, 3, 10, 25} {
		for trial := 0; trial < 60; trial++ {
			cfg := PathConfig{
				H:       h,
				C:       100,
				Through: envelope.EBB{M: 1 + rng.Float64(), Rho: 5 + 20*rng.Float64(), Alpha: 0.05 + rng.Float64()},
				Cross:   envelope.EBB{M: 1 + rng.Float64(), Rho: 10 + 40*rng.Float64(), Alpha: 0.05 + rng.Float64()},
				Delta0c: math.Inf(1),
			}
			gmax := (cfg.C - cfg.Through.Rho - cfg.Cross.Rho) / float64(cfg.H)
			// Deliberately overshoot gmax sometimes to exercise the
			// instability error paths.
			gamma := rng.Float64() * gmax * 1.4
			for _, collect := range []bool{false, true} {
				want, wantErr := refAdditiveAtGamma(cfg, 1e-9, gamma, collect)
				got, gotErr := s.buildAddTable(cfg).atGamma(cfg, 1e-9, gamma, collect)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch at h=%d gamma=%g collect=%v: ref=%v got=%v",
						h, gamma, collect, wantErr, gotErr)
				}
				if wantErr != nil {
					if errors.Is(wantErr, ErrUnstable) != errors.Is(gotErr, ErrUnstable) {
						t.Fatalf("error kind mismatch: ref=%v got=%v", wantErr, gotErr)
					}
					continue
				}
				sameBits(t, "D", got.D, want.D)
				sameBits(t, "Gamma", got.Gamma, want.Gamma)
				if collect {
					if len(got.PerNode) != len(want.PerNode) {
						t.Fatalf("PerNode length: got %d want %d", len(got.PerNode), len(want.PerNode))
					}
					for k := range want.PerNode {
						sameBits(t, "PerNode", got.PerNode[k], want.PerNode[k])
					}
				}
				if t.Failed() {
					t.Fatalf("diverged at h=%d gamma=%g collect=%v cfg=%+v", h, gamma, collect, cfg)
				}
			}
		}
	}
}

func TestDelayBoundAtGammasMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for _, delta := range schedulerDeltas {
		for _, h := range []int{1, 4, 10} {
			cfg := PathConfig{
				H:       h,
				C:       100,
				Through: envelope.EBB{M: 1, Rho: 10 + 10*rng.Float64(), Alpha: 0.1},
				Cross:   envelope.EBB{M: 1, Rho: 20 + 20*rng.Float64(), Alpha: 0.1 + 0.2*rng.Float64()},
				Delta0c: delta,
			}
			gmax := cfg.GammaMax()
			gammas := make([]float64, 0, 24)
			for i := 1; i <= 24; i++ {
				gammas = append(gammas, gmax*float64(i)/25)
			}
			batch, err := new(Scratch).DelayBoundAtGammas(cfg, 1e-9, gammas, nil)
			if err != nil {
				t.Fatalf("batch failed: %v", err)
			}
			if len(batch) != len(gammas) {
				t.Fatalf("batch returned %d results for %d gammas", len(batch), len(gammas))
			}
			for i, g := range gammas {
				want, err := DelayBoundAtGamma(cfg, 1e-9, g)
				if err != nil {
					t.Fatalf("scalar failed at gamma=%g: %v", g, err)
				}
				got := batch[i]
				sameBits(t, "D", got.D, want.D)
				sameBits(t, "Sigma", got.Sigma, want.Sigma)
				sameBits(t, "Gamma", got.Gamma, want.Gamma)
				sameBits(t, "X", got.X, want.X)
				sameBits(t, "Bound.M", got.Bound.M, want.Bound.M)
				sameBits(t, "Bound.Alpha", got.Bound.Alpha, want.Bound.Alpha)
				if len(got.Theta) != len(want.Theta) {
					t.Fatalf("Theta length: got %d want %d", len(got.Theta), len(want.Theta))
				}
				for k := range want.Theta {
					sameBits(t, "Theta", got.Theta[k], want.Theta[k])
				}
				if t.Failed() {
					t.Fatalf("diverged at delta=%g h=%d gamma=%g", delta, h, g)
				}
			}
		}
	}
}

func TestDelayBoundAtGammasErrorAndRecycling(t *testing.T) {
	cfg := PathConfig{
		H:       5,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	gmax := cfg.GammaMax()

	// An out-of-range γ mid-batch fails the whole call, exactly as the
	// caller's own loop would have failed at that element.
	if _, err := new(Scratch).DelayBoundAtGammas(cfg, 1e-9, []float64{gmax / 2, gmax * 2, gmax / 3}, nil); err == nil {
		t.Fatal("expected error for out-of-range gamma in batch")
	}

	// Recycled dst must reproduce the fresh results exactly.
	gammas := []float64{gmax / 4, gmax / 2, gmax * 3 / 4}
	var s Scratch
	fresh, err := s.DelayBoundAtGammas(cfg, 1e-9, gammas, nil)
	if err != nil {
		t.Fatalf("fresh batch failed: %v", err)
	}
	// Clone before recycling: the second call overwrites fresh's entries.
	want := make([]Result, len(fresh))
	for i, r := range fresh {
		want[i] = r
		want[i].Theta = append([]float64(nil), r.Theta...)
	}
	again, err := s.DelayBoundAtGammas(cfg, 1e-9, gammas, fresh)
	if err != nil {
		t.Fatalf("recycled batch failed: %v", err)
	}
	for i := range want {
		sameBits(t, "D", again[i].D, want[i].D)
		for k := range want[i].Theta {
			sameBits(t, "Theta", again[i].Theta[k], want[i].Theta[k])
		}
	}
}
