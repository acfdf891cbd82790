package core

import (
	"math"
	"testing"

	"deltasched/internal/minplus"
)

func detCfg(h int, delta float64) DetPathConfig {
	return DetPathConfig{
		H:       h,
		C:       10,
		Through: minplus.Affine(2, 4),
		Cross:   minplus.Affine(3, 12),
		Delta0c: delta,
	}
}

func TestNetworkServiceDetBMUXIsRateLatency(t *testing.T) {
	// BMUX leftover at θ=0 is the rate-latency curve β_{C−ρc, Bc/(C−ρc)};
	// H of them convolve to rate C−ρc, latency H·Bc/(C−ρc).
	for _, h := range []int{1, 2, 4} {
		net, err := NetworkServiceDet(detCfg(h, math.Inf(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := minplus.RateLatency(7, float64(h)*12.0/7)
		if !minplus.AlmostEqual(net, want, 1e-6, 60) {
			t.Fatalf("H=%d: S^net = %v, want %v", h, net, want)
		}
	}
}

func TestDelayBoundDetPathBMUXClosedForm(t *testing.T) {
	// d = (B_0 + H·B_c)/(C−ρ_c): burst of the flow plus H cross bursts,
	// all served at the leftover rate.
	for _, h := range []int{1, 2, 5} {
		res, err := DelayBoundDetPath(detCfg(h, math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := (4 + float64(h)*12) / 7
		almost(t, res.D, want, 1e-6, "BMUX deterministic e2e")
	}
}

func TestDelayBoundDetPathFIFOBeatsBMUX(t *testing.T) {
	// FIFO can pick θ>0: with θ = Bc/C the per-node curve improves to
	// β_{C−ρc, Bc/C}, so d <= B0/(C−ρc) + H·Bc/C < BMUX's bound.
	for _, h := range []int{1, 2, 5} {
		fifo, err := DelayBoundDetPath(detCfg(h, 0))
		if err != nil {
			t.Fatal(err)
		}
		bmux, err := DelayBoundDetPath(detCfg(h, math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		if fifo.D >= bmux.D {
			t.Fatalf("H=%d: FIFO %g should beat BMUX %g deterministically", h, fifo.D, bmux.D)
		}
		analytic := 4.0/7 + float64(h)*12/10 // achievable with θ = Bc/C
		if fifo.D > analytic+1e-6 {
			t.Fatalf("H=%d: FIFO bound %g worse than the θ=Bc/C construction %g", h, fifo.D, analytic)
		}
	}
}

func TestDelayBoundDetPathSPFullRate(t *testing.T) {
	// Strictly prioritized through traffic: cross is excluded, the network
	// curve is Ct (gated only by θ, and θ=0 is optimal), so d = B_0/C.
	res, err := DelayBoundDetPath(detCfg(4, math.Inf(-1)))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.D, 4.0/10, 1e-6, "strict priority deterministic e2e")
}

func TestDelayBoundDetPathSchedulerOrdering(t *testing.T) {
	var prev float64
	for i, delta := range []float64{math.Inf(-1), -3, 0, 3, math.Inf(1)} {
		res, err := DelayBoundDetPath(detCfg(3, delta))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.D < prev-1e-9 {
			t.Fatalf("deterministic bounds not monotone in Delta at %g: %g < %g", delta, res.D, prev)
		}
		prev = res.D
	}
}

func TestDelayBoundDetPathUnstable(t *testing.T) {
	cfg := detCfg(2, 0)
	cfg.Cross = minplus.Affine(9, 1) // 2 + 9 > 10
	if _, err := DelayBoundDetPath(cfg); err == nil {
		t.Fatal("overloaded deterministic path must be rejected")
	}
}

func TestDetMatchesSingleNodeAtH1(t *testing.T) {
	// For H=1 the path analysis must agree with the single-node tight
	// bound of Theorem 2 (both are exact for concave envelopes).
	for _, delta := range []float64{math.Inf(-1), -2, 0, 2, math.Inf(1)} {
		res, err := DelayBoundDetPath(detCfg(1, delta))
		if err != nil {
			t.Fatal(err)
		}
		envs := map[FlowID]minplus.Curve{0: minplus.Affine(2, 4), 1: minplus.Affine(3, 12)}
		want, err := DelayBoundDet(10, 0, envs, fixedDelta{delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		almost(t, res.D, want, 1e-5*(1+want), "H=1 path vs single node")
	}
}
