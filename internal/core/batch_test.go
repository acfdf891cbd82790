package core

import (
	"errors"
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

	best := math.Inf(1)
	for _, x := range cands {
		if x < 0 || math.IsNaN(x) {
			continue
		}
		total := x
		for i := 1; i <= h; i++ {
			total += refThetaAt(c-float64(i-1)*gamma, beta, delta, sigma, x)
		}
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

func TestInnerSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	var s Scratch
	n := 0
	for _, h := range []int{1, 2, 3, 5, 10, 20, 33} {
		for _, delta := range schedulerDeltas {
			for trial := 0; trial < 40; trial++ {
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
				refD, refX := refInnerMinimize(h, c, gamma, rhoc, delta, sigma)
				gotD, gotX := s.innerSolve(h, c, gamma, rhoc, delta, sigma)
				sameBits(t, "d", gotD, refD)
				sameBits(t, "xOpt", gotX, refX)
				if t.Failed() {
					t.Fatalf("diverged at h=%d c=%g gamma=%g rhoc=%g delta=%g sigma=%g",
						h, c, gamma, rhoc, delta, sigma)
				}
				n++
			}
		}
	}
	if n < 1000 {
		t.Fatalf("sweep degenerated: only %d comparisons ran", n)
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
