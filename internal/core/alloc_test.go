package core

import (
	"context"
	"math"
	"testing"

	"deltasched/internal/envelope"
)

// TestDelayBoundAtGammaAllocFree pins the γ-probe hot path at zero heap
// allocations per call once the Scratch buffers are warm (ISSUE 4): the
// grid + golden-section sweep inside DelayBound prices hundreds of γ
// values per bound, so a single allocation here multiplies into tens of
// thousands per figure point.
func TestDelayBoundAtGammaAllocFree(t *testing.T) {
	cfg := PathConfig{
		H:       20,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: -5,
	}
	var s Scratch
	if _, err := s.DelayBoundAtGamma(cfg, 1e-9, 0.5); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.DelayBoundAtGamma(cfg, 1e-9, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Scratch.DelayBoundAtGamma allocates %g times per call at steady state, want 0", allocs)
	}
}

// TestDelayBoundAtGammaAllocFreeAcrossSchedulers repeats the pin for the
// other Δ regimes (FIFO, BMUX, strict priority), whose candidate
// enumeration takes different branches of the inner solver.
func TestDelayBoundAtGammaAllocFreeAcrossSchedulers(t *testing.T) {
	base := PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
	}
	for name, delta := range map[string]float64{
		"fifo": 0,
		"bmux": math.Inf(1),
		"sp":   math.Inf(-1),
		"edf":  7,
	} {
		cfg := base
		cfg.Delta0c = delta
		var s Scratch
		if _, err := s.DelayBoundAtGamma(cfg, 1e-9, 0.4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.DelayBoundAtGamma(cfg, 1e-9, 0.4); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %g allocs per call at steady state, want 0", name, allocs)
		}
	}
}

// TestDelayBoundAllocFloor pins the package-level DelayBound at one heap
// allocation per solve — the Theta clone that un-aliases the result from
// the pooled Scratch (ISSUE 9; down from 16 allocations before the
// batched kernels). The pooled Scratch may be dropped by a background GC
// mid-measurement, so the pin allows a small amortized slack above 1
// rather than exact equality. Under the race detector sync.Pool drops
// items on purpose, so the pin is skipped there.
func TestDelayBoundAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	cfg := PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	if _, err := DelayBound(cfg, 1e-9); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DelayBound(cfg, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.5 {
		t.Errorf("DelayBound allocates %g times per solve at steady state, want 1 (the Theta clone)", allocs)
	}
}

// TestScratchDelayBoundAllocFree pins the scratch-reusing full solve —
// grid sweep, golden refinement, winning re-evaluation — at zero heap
// allocations once warm.
func TestScratchDelayBoundAllocFree(t *testing.T) {
	cfg := PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	var s Scratch
	if _, err := s.DelayBound(context.Background(), cfg, 1e-9); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.DelayBound(context.Background(), cfg, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Scratch.DelayBound allocates %g times per solve at steady state, want 0", allocs)
	}
}

// TestScratchDelayBoundAllocFreeAcrossDelta pins the reuse state of a
// warm Scratch — the σ log of the last γ search and the candidates' hop
// hints — at zero allocations per solve while Δ changes between solves,
// as it does along an EDF fixed point.
func TestScratchDelayBoundAllocFreeAcrossDelta(t *testing.T) {
	cfg := PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
	}
	deltas := []float64{-3, 0, 2.5, math.Inf(1), -0.7}
	var s Scratch
	for _, d := range deltas { // warm every regime's buffers
		cfg.Delta0c = d
		if _, err := s.DelayBound(context.Background(), cfg, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(50, func() {
		cfg.Delta0c = deltas[n%len(deltas)]
		n++
		if _, err := s.DelayBound(context.Background(), cfg, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Scratch.DelayBound allocates %g times per solve as Δ changes, want 0", allocs)
	}
}

// TestEDFProvisionedAllocs pins the package-level EDF fixed point — a
// BMUX bracket, ~30 bisection steps and the final pricing on one pooled
// Scratch — at 3 allocations per solve: the σ log and the hop hints
// add none. Skipped under the race detector, as TestDelayBoundAllocFloor.
func TestEDFProvisionedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	cfg := PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
	}
	if _, _, err := EDFProvisioned(cfg, 1e-9, 10); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := EDFProvisioned(cfg, 1e-9, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("EDFProvisioned allocates %g times per solve at steady state, want <= 3", allocs)
	}
}

// TestDelayBoundAtGammasAllocFree pins the batch probe API at zero
// steady-state allocations when the caller round-trips the result slice
// as dst — the contract that makes γ-grid sweeps allocation-free.
func TestDelayBoundAtGammasAllocFree(t *testing.T) {
	cfg := PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	gmax := cfg.GammaMax()
	gammas := make([]float64, 0, 16)
	for i := 1; i <= 16; i++ {
		gammas = append(gammas, gmax*float64(i)/17)
	}
	var s Scratch
	dst, err := s.DelayBoundAtGammas(cfg, 1e-9, gammas, nil) // warm buffers
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = s.DelayBoundAtGammas(cfg, 1e-9, gammas, dst)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Scratch.DelayBoundAtGammas allocates %g times per batch at steady state, want 0", allocs)
	}
}

// TestScratchResultMatchesPackageLevel guards the aliasing contract: the
// scratch path must produce the same numbers as the package-level
// functions (which run on a fresh Scratch), and reusing the Scratch for
// a different configuration must not leak state between calls.
func TestScratchResultMatchesPackageLevel(t *testing.T) {
	cfgs := []PathConfig{
		{H: 3, C: 50, Through: envelope.EBB{M: 1, Rho: 10, Alpha: 0.2},
			Cross: envelope.EBB{M: 1, Rho: 20, Alpha: 0.2}, Delta0c: 0},
		{H: 8, C: 100, Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
			Cross: envelope.EBB{M: 1, Rho: 35, Alpha: 0.1}, Delta0c: math.Inf(1)},
		{H: 5, C: 80, Through: envelope.EBB{M: 1, Rho: 12, Alpha: 0.15},
			Cross: envelope.EBB{M: 1, Rho: 30, Alpha: 0.15}, Delta0c: -3},
	}
	var s Scratch
	for i, cfg := range cfgs {
		want, err := DelayBound(cfg, 1e-6)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got, err := s.DelayBound(context.Background(), cfg, 1e-6)
		if err != nil {
			t.Fatalf("cfg %d (scratch): %v", i, err)
		}
		if got.D != want.D || got.Gamma != want.Gamma || got.X != want.X || got.Sigma != want.Sigma {
			t.Errorf("cfg %d: scratch result (D=%v γ=%v) differs from package-level (D=%v γ=%v)",
				i, got.D, got.Gamma, want.D, want.Gamma)
		}
		if len(got.Theta) != len(want.Theta) {
			t.Fatalf("cfg %d: theta length %d vs %d", i, len(got.Theta), len(want.Theta))
		}
		for j := range got.Theta {
			if got.Theta[j] != want.Theta[j] {
				t.Errorf("cfg %d: theta[%d] = %v, want %v", i, j, got.Theta[j], want.Theta[j])
			}
		}
	}
}
