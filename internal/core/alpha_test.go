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

// refOptimizeAlphaFunc is the α sweep without a floor, scanning its grid
// upward and keeping strict improvements: the oracle of
// TestAlphaSweepMatchesUpwardScan. Tracing and counting are left out.
func refOptimizeAlphaFunc[R any](ctx context.Context, eval func(ctx context.Context, alpha float64) (float64, R, error), alphaLo, alphaHi float64) (float64, R, error) {
	var none R
	type probe struct {
		v float64
		r R
	}
	f := func(a float64) probe {
		if ctx.Err() != nil {
			return probe{v: math.Inf(1)}
		}
		v, r, err := eval(ctx, a)
		if err != nil || math.IsNaN(v) {
			v = math.Inf(1)
		}
		return probe{v, r}
	}
	const gridN = 40
	logLo, logHi := math.Log(alphaLo), math.Log(alphaHi)
	bestA, best := 0.0, probe{v: math.Inf(1)}
	for i := 0; i <= gridN; i++ {
		a := math.Exp(logLo + (logHi-logLo)*float64(i)/gridN)
		if p := f(a); p.v < best.v {
			bestA, best = a, p
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, none, err
	}
	if math.IsInf(best.v, 1) {
		return 0, none, fmt.Errorf("%w: no feasible alpha in [%g, %g]", ErrUnstable, alphaLo, alphaHi)
	}
	step := (logHi - logLo) / gridN
	refined := goldenMin(func(la float64) float64 { return f(math.Exp(la)).v },
		math.Log(bestA)-step, math.Log(bestA)+step, 36, nil)
	a := math.Exp(refined)
	p := f(a)
	if err := ctx.Err(); err != nil {
		return 0, none, err
	}
	if !(p.v <= best.v) {
		a, p = bestA, best
	}
	return a, p.r, nil
}

// sweepWinner is the payload of TestAlphaSweepMatchesUpwardScan's
// sweeps: the bound's Result and, for EDF, the fixed point's d*₀.
type sweepWinner struct {
	res Result
	d0  float64
}

// TestAlphaSweepMatchesUpwardScan pins the floored α sweep's exactness:
// OptimizePathAlpha, which scans its grid downward and skips the α
// whose delay floor loses, returns the α, value and payload of the
// unfloored upward scan bit for bit. The objectives are those of the
// figure sweeps (experiments.Setup.BoundModel): the paper's MMOO
// sources at N = U·C/0.15 flows split evenly between through and cross
// traffic, priced by DelayBound for BMUX and FIFO and by EDFProvisioned
// at the three deadline ratios, over H ∈ {1, 2, 5, 10, 30} and
// U ∈ {0.1, 0.5, 0.9}. The floor must skip some α, and every priced or
// skipped α is one the oracle priced.
func TestAlphaSweepMatchesUpwardScan(t *testing.T) {
	p := testProbe(t)
	src := envelope.PaperSource()
	ctx := context.Background()
	const eps = 1e-9
	hs := []int{1, 2, 5, 10, 30}
	if testing.Short() {
		hs = []int{1, 5, 30}
	}
	for _, h := range hs {
		for _, u := range []float64{0.1, 0.5, 0.9} {
			n := u * 100 / 0.15 / 2
			for _, sched := range []struct {
				name  string
				delta float64
				ratio float64 // > 0: EDF at this deadline ratio
			}{{"BMUX", math.Inf(1), 0}, {"FIFO", 0, 0}, {"EDF10", 0, 10}, {"EDF2", 0, 2}, {"EDF0.5", 0, 0.5}} {
				name := fmt.Sprintf("%s H=%d U=%g", sched.name, h, u)
				build := func(alpha float64) (PathConfig, error) {
					through, err := src.EBBAggregate(n, alpha)
					if err != nil {
						return PathConfig{}, err
					}
					cross, err := src.EBBAggregate(n, alpha)
					if err != nil {
						return PathConfig{}, err
					}
					return PathConfig{H: h, C: 100, Through: through, Cross: cross, Delta0c: sched.delta}, nil
				}
				price := func(ctx context.Context, cfg PathConfig) (float64, sweepWinner, error) {
					if sched.ratio > 0 {
						r, d0, err := EDFProvisionedCtx(ctx, cfg, eps, sched.ratio)
						return r.D, sweepWinner{r, d0}, err
					}
					r, err := DelayBoundCtx(ctx, cfg, eps)
					return r.D, sweepWinner{r, 0}, err
				}
				refProbes := 0
				wantA, want, wantErr := refOptimizeAlphaFunc(ctx, func(ctx context.Context, alpha float64) (float64, sweepWinner, error) {
					refProbes++
					cfg, err := build(alpha)
					if err != nil {
						return 0, sweepWinner{}, err
					}
					return price(ctx, cfg)
				}, 1e-3, 50)
				priced, skipped := p.AlphaProbes.Load(), p.AlphaSkips.Load()
				gotA, got, gotErr := OptimizePathAlpha(ctx, build, eps, price, 1e-3, 50)
				priced, skipped = p.AlphaProbes.Load()-priced, p.AlphaSkips.Load()-skipped
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, the upward scan's %v", name, gotErr, wantErr)
				}
				if priced+skipped != int64(refProbes) {
					t.Errorf("%s: %d α priced + %d skipped, the upward scan priced %d", name, priced, skipped, refProbes)
				}
				if wantErr != nil {
					continue
				}
				sameBits(t, name+" α", gotA, wantA)
				sameResult(t, name, got.res, want.res)
				sameBits(t, name+" d0", got.d0, want.d0)
				if t.Failed() {
					t.Fatalf("%s: the floored sweep diverged from the upward scan", name)
				}
			}
		}
	}
	if p.AlphaSkips.Load() == 0 {
		t.Error("no α was skipped: the floor never engaged")
	}
}

// TestAlphaSweepMatchesUpwardScanSynthetic runs the floored sweep and
// the upward oracle on synthetic objectives over the same grid:
// plateaus of tied values, values one ulp apart, NaN and erroring
// points and all-infeasible grids, each with floors at, below and far
// below the value, NaN and −Inf, and a sweep cancelled midway. α, value
// and payload (the index of the grid cell that priced it) must agree
// bit for bit, and priced plus skipped must equal the oracle's probes.
func TestAlphaSweepMatchesUpwardScanSynthetic(t *testing.T) {
	p := testProbe(t)
	rng := rand.New(rand.NewSource(3301))
	const lo, hi = 1e-3, 50.0
	cell := func(a float64) int { // the grid point nearest α, clamped
		k := int(math.Round(40 * math.Log(a/lo) / math.Log(hi/lo)))
		return min(max(k, 0), 40)
	}
	type point struct {
		v     float64
		err   error
		floor float64
	}
	errInfeasible := errors.New("infeasible")
	skipped := int64(0)
	for trial := 0; trial < 3000; trial++ {
		var grid [41]point
		levels := []float64{1, 2, 3}
		switch trial % 6 {
		case 0: // one plateau: every point ties
			levels = []float64{7}
		case 1: // values one ulp apart: 0.1+0.2 rounds to the ulp above 0.3
			levels = []float64{0.1 + 0.2, 0.3, math.Nextafter(0.3, 1)}
		case 2: // wide spread
			levels = []float64{1e-300, 1, 1e300}
		}
		for k := range grid {
			pt := &grid[k]
			pt.v = levels[rng.Intn(len(levels))]
			switch r := rng.Intn(20); {
			case trial%6 == 5 || r == 0: // infeasible: all of them on this kind of trial
				pt.err = errInfeasible
			case r == 1:
				pt.v = math.NaN()
			case r == 2:
				pt.v = math.Inf(1)
			}
			switch r := rng.Intn(6); {
			case r == 0: // the value itself: a floor that ties
				pt.floor = pt.v
				if pt.err != nil || math.IsNaN(pt.v) {
					pt.floor = math.Inf(1)
				}
			case r == 1:
				pt.floor = math.NaN()
			case r == 2:
				pt.floor = math.Inf(-1)
			default: // below the value
				pt.floor = pt.v * (1 - rng.Float64())
				if pt.err != nil || math.IsNaN(pt.v) || math.IsInf(pt.v, 1) {
					pt.floor = 1e300 * rng.Float64()
				}
			}
		}
		eval := func(_ context.Context, a float64) (float64, int, error) {
			pt := grid[cell(a)]
			return pt.v, cell(a), pt.err
		}
		refProbes := 0
		wantA, want, wantErr := refOptimizeAlphaFunc(context.Background(), func(ctx context.Context, a float64) (float64, int, error) {
			refProbes++
			return eval(ctx, a)
		}, lo, hi)
		priced, skips := p.AlphaProbes.Load(), p.AlphaSkips.Load()
		gotA, got, gotErr := alphaSweep(context.Background(), eval, func(a float64) float64 { return grid[cell(a)].floor }, lo, hi)
		priced, skips = p.AlphaProbes.Load()-priced, p.AlphaSkips.Load()-skips
		skipped += skips
		name := fmt.Sprintf("trial %d", trial)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, the upward scan's %v", name, gotErr, wantErr)
		}
		sameBits(t, name+" α", gotA, wantA)
		if got != want {
			t.Errorf("%s: payload %d, the upward scan's %d", name, got, want)
		}
		if priced+skips != int64(refProbes) {
			t.Errorf("%s: %d α priced + %d skipped, the upward scan priced %d", name, priced, skips, refProbes)
		}
		if t.Failed() {
			t.Fatalf("%s: grid %v", name, grid)
		}
	}
	if skipped == 0 {
		t.Error("no α was skipped: the floors never engaged")
	}

	// A cancelled sweep returns ctx's error, as the oracle does, and
	// neither prices nor consults the floor after the cancellation. The
	// floor skips every other point before it.
	for _, at := range []int{1, 2, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, _, err := alphaSweep(ctx, func(context.Context, float64) (float64, int, error) {
			calls++
			if calls == at {
				cancel()
			}
			return 1, calls, nil
		}, func(a float64) float64 {
			if ctx.Err() != nil {
				t.Errorf("cancelled at probe %d: the floor was consulted after the cancellation", at)
			}
			return float64(2 * (cell(a) % 2))
		}, lo, hi)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at probe %d: %v, want context.Canceled", at, err)
		}
		if calls != at {
			t.Errorf("cancelled at probe %d: %d probes ran", at, calls)
		}
	}
}

// alphaFloorDraws calls f with random path traffics: H up to 480 (H > 64
// only without -short), decays α_t, α_c log-uniform over [1e-3, 50],
// light loads and loads within 10⁻⁶ of saturation, and ε from 10⁻² to
// 10⁻¹².
func alphaFloorDraws(t *testing.T, f func(cfg PathConfig, eps float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(3333))
	logAlpha := func() float64 { return math.Exp(math.Log(1e-3) + math.Log(50/1e-3)*rng.Float64()) }
	for _, h := range []int{1, 2, 3, 5, 10, 30, 64, 480} {
		if h > 64 && testing.Short() {
			continue
		}
		trials := 12
		if h > 64 {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			load := 0.05 + 0.9*rng.Float64()
			if trial%3 == 0 {
				load = 1 - 1e-6*rng.Float64()
			}
			rho := load * 100 * (0.05 + 0.9*rng.Float64())
			cfg := PathConfig{
				H:       h,
				C:       100,
				Through: envelope.EBB{M: 1 + 3*rng.Float64(), Rho: rho, Alpha: logAlpha()},
				Cross:   envelope.EBB{M: 1 + 3*rng.Float64(), Rho: load*100 - rho, Alpha: logAlpha()},
			}
			if trial%4 == 1 { // one decay for both, as the MMOO sweeps have
				cfg.Cross.Alpha = cfg.Through.Alpha
			}
			f(cfg, math.Pow(10, -2-10*rng.Float64()))
		}
	}
}

// TestAlphaFloorBoundsSearches pins the α floor's premise (DESIGN.md
// §16, "Floors across the α grid"): the floor of a path's traffic lies
// at or below the D that DelayBound computes at Δ ∈ {−40, 0, 5, +∞},
// and at or below EDFProvisioned's D at deadline ratios 0.5, 2 and 10;
// strict priority has its own σ and γmax and its own floor.
func TestAlphaFloorBoundsSearches(t *testing.T) {
	var s Scratch
	n, finite := 0, 0
	alphaFloorDraws(t, func(cfg PathConfig, eps float64) {
		floor := s.alphaFloor(cfg, eps)
		check := func(what string, d float64, err error, floor float64) {
			t.Helper()
			if err == nil && !(floor <= d) {
				t.Fatalf("cfg=%+v eps=%g: floor %v above %s's D = %v", cfg, eps, floor, what, d)
			}
		}
		for _, delta := range []float64{-40, 0, 5, math.Inf(1), math.Inf(-1)} {
			c := cfg
			c.Delta0c = delta
			f := floor
			if math.IsInf(delta, -1) {
				f = s.alphaFloor(c, eps)
			} else if got := s.alphaFloor(c, eps); math.Float64bits(got) != math.Float64bits(floor) {
				t.Fatalf("cfg=%+v: floor %v at Δ = %g, %v at Δ = 0", cfg, got, delta, floor)
			}
			r, err := s.DelayBound(context.Background(), c, eps)
			check(fmt.Sprintf("DelayBound(Δ = %g)", delta), r.D, err, f)
		}
		for _, ratio := range []float64{0.5, 2, 10} {
			r, _, err := s.edfProvisioned(context.Background(), cfg, eps, ratio)
			check(fmt.Sprintf("EDFProvisioned(ratio %g)", ratio), r.D, err, floor)
		}
		n++
		if !math.IsInf(floor, -1) {
			finite++
		}
	})
	t.Logf("%d traffics, %d with a finite floor", n, finite)
	if n < 60 || finite < n/2 {
		t.Fatalf("sweep degenerated: %d traffics, %d with a finite floor", n, finite)
	}
}

// TestAlphaFloorCoversSigmaSlack pins the σ part of the α floor's
// margin. Over an interval [a, b] of the floor's cover, a search may
// price σ as low as σ(b) − 2δσ, and the inner solve at either end's
// rates with that σ must stay at or above the floor. At Δ = −10³ and
// under strict priority the solve returns σ/ch_H itself, so the floor's
// binding interval meets the bound within rounding: a floor without
// the 2δσ margin fails here, though no computed D of a whole search
// came within its directed roundings of such a floor.
func TestAlphaFloorCoversSigmaSlack(t *testing.T) {
	var s Scratch
	n, tight := 0, 0
	alphaFloorDraws(t, func(cfg PathConfig, eps float64) {
		for _, delta := range []float64{-1e3, 0, math.Inf(1), math.Inf(-1)} {
			cfg.Delta0c = delta
			floor := s.alphaFloor(cfg, eps)
			if math.IsInf(floor, -1) {
				continue
			}
			n++
			gmax := cfg.GammaMax()
			a := gmax * 1e-9
			for i := 1; i <= gammaGridN+1; i++ {
				b := gmax * (1 - 1e-9)
				if i <= gammaGridN {
					b = gridGamma(gmax, i)
				}
				sb := s.pathBound(cfg, b).SigmaFor(eps)
				lo := math.Max(0, sb-2*sigmaSlack(cfg.H, cfg.Through.Alpha, cfg.Cross.Alpha, a, sb))
				for _, g := range []float64{a, b} {
					d, _ := s.innerSolve(cfg.H, cfg.C, g, cfg.Cross.Rho, delta, lo)
					if d < floor {
						t.Fatalf("cfg=%+v eps=%g [%v, %v]: D(%v) at σ(b) − 2δσ = %v is %v, below the floor %v",
							cfg, eps, a, b, g, lo, d, floor)
					}
					if d <= floor*(1+1e-9) {
						tight++
					}
				}
				a = b
			}
		}
	})
	t.Logf("%d floors, %d interval ends within 1e-9 of theirs", n, tight)
	if n < 100 || tight == 0 {
		t.Fatalf("sweep degenerated: %d floors, %d tight interval ends", n, tight)
	}
}

// FuzzAlphaFloor fuzzes TestAlphaFloorBoundsSearches's inequality: the
// floor of a path's traffic is at most DelayBound's D at the fuzzed Δ
// and EDFProvisioned's D at the fuzzed deadline ratio.
func FuzzAlphaFloor(f *testing.F) {
	f.Add(5, 15.0, 35.0, 0.1, 0.3, 2.0, 1e-9, 0.0, 10.0)
	f.Add(1, 20.0, 79.9999, 0.02, 0.05, 1.0, 1e-6, -40.0, 0.5)
	f.Add(30, 30.0, 30.0, 40.0, 1e-3, 3.0, 1e-3, math.Inf(1), 2.0)
	f.Add(2, 49.0, 50.9, 1.0, 0.01, 1.0, 1e-12, 5.0, 2.0)
	f.Fuzz(func(t *testing.T, h int, rho, rhoc, alpha, alphac, m, eps, delta, ratio float64) {
		ok := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
		if !ok(float64(h), 1, 64) || !ok(rho, 0, 100) || !ok(rhoc, 0, 100) || !ok(alpha, 1e-3, 50) ||
			!ok(alphac, 1e-3, 50) || !ok(m, 1, 1e3) || !(eps > 0 && eps < 1) || math.IsNaN(delta) ||
			!ok(ratio, 1e-2, 100) {
			t.Skip()
		}
		cfg := PathConfig{H: h, C: 100,
			Through: envelope.EBB{M: m, Rho: rho, Alpha: alpha},
			Cross:   envelope.EBB{M: 1, Rho: rhoc, Alpha: alphac},
			Delta0c: delta}
		var s Scratch
		floor := s.alphaFloor(cfg, eps)
		if r, err := s.DelayBound(context.Background(), cfg, eps); err == nil && !(floor <= r.D) {
			t.Fatalf("floor %v above DelayBound's D = %v", floor, r.D)
		}
		if math.IsInf(delta, -1) {
			return // strict priority's floor does not bound the fixed point's searches
		}
		if r, _, err := s.edfProvisioned(context.Background(), cfg, eps, ratio); err == nil && !(floor <= r.D) {
			t.Fatalf("floor %v above EDFProvisioned's D = %v", floor, r.D)
		}
	})
}
