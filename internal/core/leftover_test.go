package core

import (
	"math"
	"testing"

	"deltasched/internal/minplus"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsInf(want, 1) {
		if !math.IsInf(got, 1) {
			t.Fatalf("%s: got %g, want +Inf", msg, got)
		}
		return
	}
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestLeftoverDetBMUX(t *testing.T) {
	// Blind multiplexing, θ=0: the classic leftover S(t) = [Ct − E_c(t)]_+.
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),  // through
		1: minplus.Affine(3, 12), // cross
	}
	s, err := LeftoverDet(10, 0, envs, BMUX{Low: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, s.Eval(0), 0, 0, "clipped at 0")
	almost(t, s.Eval(12.0/7), 0, 1e-9, "zero until the burst is cleared") // 10t = 3t+12
	almost(t, s.Eval(4), 10*4-(3*4+12), 1e-9, "leftover rate C−ρ_c")
}

func TestLeftoverDetFIFO(t *testing.T) {
	// FIFO, θ>0: Δ=0 so the cross envelope is shifted right by θ —
	// S(t;θ) = [Ct − E_c(t−θ)]_+ 1{t>θ}, Cruz's FIFO service curve family.
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),
		1: minplus.Affine(3, 12),
	}
	theta := 2.0
	s, err := LeftoverDet(10, 0, envs, FIFO{}, theta)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, s.Eval(1.5), 0, 0, "gated before θ")
	almost(t, s.EvalLeft(2), 0, 0, "still zero at θ from the left")
	// At t=3 (>θ): 10·3 − E_c(1) = 30 − 15 = 15.
	almost(t, s.Eval(3), 15, 1e-9, "FIFO discounts cross arrivals after t−θ")
	if !s.NonDecreasing() {
		t.Error("leftover service curve should be non-decreasing here")
	}
}

func TestLeftoverDetStrictPriority(t *testing.T) {
	// Through traffic has top priority: cross flows are excluded entirely
	// and the full link is available (gated by θ).
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),
		1: minplus.Affine(3, 12),
	}
	p := StaticPriority{Level: map[FlowID]int{0: 10, 1: 1}}
	s, err := LeftoverDet(10, 0, envs, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, 5} {
		almost(t, s.Eval(x), 10*x, 1e-9, "full rate for the top-priority flow")
	}
}

func TestLeftoverDetEDF(t *testing.T) {
	// EDF with d*_0=1, d*_c=5: Δ_{0,c} = −4, so for θ > 0 the shift is
	// θ − min(−4, θ) = θ+4: cross traffic arriving within 4 slots of the
	// tagged arrival's deadline is discounted.
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),
		1: minplus.Affine(3, 12),
	}
	p := EDF{Deadline: map[FlowID]float64{0: 1, 1: 5}}
	theta := 2.0
	s, err := LeftoverDet(10, 0, envs, p, theta)
	if err != nil {
		t.Fatal(err)
	}
	// At t=7 (>θ): 10·7 − E_c(7−(θ+4)) = 70 − E_c(1) = 70 − 15 = 55.
	almost(t, s.Eval(7), 55, 1e-9, "EDF shift by θ−Δ")
	// Compare: FIFO at the same θ discounts less.
	sf, err := LeftoverDet(10, 0, envs, FIFO{}, theta)
	if err != nil {
		t.Fatal(err)
	}
	if s.Eval(7) <= sf.Eval(7) {
		t.Errorf("EDF with favourable deadlines must dominate FIFO: EDF %g vs FIFO %g",
			s.Eval(7), sf.Eval(7))
	}
}

func TestLeftoverDetValidation(t *testing.T) {
	envs := map[FlowID]minplus.Curve{0: minplus.Affine(1, 1)}
	if _, err := LeftoverDet(0, 0, envs, FIFO{}, 0); err == nil {
		t.Error("zero capacity must be rejected")
	}
	if _, err := LeftoverDet(10, 0, envs, FIFO{}, -1); err == nil {
		t.Error("negative theta must be rejected")
	}
	if _, err := LeftoverDet(10, 5, envs, FIFO{}, 0); err == nil {
		t.Error("unknown flow must be rejected")
	}
}

func TestLeftoverDetIsServiceCurveInFluidModel(t *testing.T) {
	// Empirical check of Theorem 1 in a two-flow fluid FIFO node: simulate
	// greedy cross traffic and constant through traffic, and verify
	// D_0(t) >= (A_0 ∗ S_0)(t) slot by slot.
	c := 10.0
	crossEnv := minplus.Affine(3, 12)
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 0),
		1: crossEnv,
	}
	for _, theta := range []float64{0, 1, 3} {
		s, err := LeftoverDet(c, 0, envs, FIFO{}, theta)
		if err != nil {
			t.Fatal(err)
		}
		// Fluid FIFO simulation on a unit grid: arrivals happen at slot
		// starts; both flows share the link FIFO by arrival slot.
		const horizon = 40
		const dt = 0.05
		steps := int(horizon / dt)
		var a0, a1, d0 float64
		backlog := make([]struct{ f0, f1 float64 }, 0, steps) // per-arrival-epoch queue
		for i := 0; i < steps; i++ {
			tm := float64(i) * dt
			// Greedy arrivals tracing the envelopes.
			na0 := minplus.Affine(2, 0).Eval(tm + dt)
			na1 := crossEnv.Eval(tm + dt)
			backlog = append(backlog, struct{ f0, f1 float64 }{na0 - a0, na1 - a1})
			a0, a1 = na0, na1
			// Serve C·dt in FIFO order (oldest arrival epoch first).
			budget := c * dt
			for j := range backlog {
				if budget <= 0 {
					break
				}
				q := &backlog[j]
				tot := q.f0 + q.f1
				if tot <= 0 {
					continue
				}
				take := math.Min(budget, tot)
				// Within an epoch, serve proportionally (fluid tie-break).
				share0 := take * q.f0 / tot
				d0 += share0
				q.f0 -= share0
				q.f1 = math.Max(0, q.f1-(take-share0))
				budget -= take
			}
			// Check D_0(t) >= inf_s A_0(s) + S(t−s) on a coarse grid.
			if i%20 == 0 {
				conv := math.Inf(1)
				for k := 0; k <= i; k += 4 {
					sm := float64(k) * dt
					v := minplus.Affine(2, 0).Eval(sm) + s.Eval(tm+dt-sm)
					if v < conv {
						conv = v
					}
				}
				if d0 < conv-0.35 { // fluid-grid slack
					t.Fatalf("θ=%g t=%.1f: departures %g below service-curve bound %g", theta, tm, d0, conv)
				}
			}
		}
	}
}
