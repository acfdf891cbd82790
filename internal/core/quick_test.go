package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deltasched/internal/envelope"
)

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}
}

// randPath draws a random stable homogeneous path configuration.
func randPath(r *rand.Rand) PathConfig {
	c := 50 + 150*r.Float64()
	rho := c * (0.05 + 0.3*r.Float64())
	rhoc := c * (0.05 + 0.5*r.Float64())
	for rho+rhoc > 0.95*c {
		rhoc *= 0.8
	}
	return PathConfig{
		H:       1 + r.Intn(10),
		C:       c,
		Through: envelope.EBB{M: 1 + r.Float64(), Rho: rho, Alpha: 0.01 + r.Float64()},
		Cross:   envelope.EBB{M: 1 + r.Float64(), Rho: rhoc, Alpha: 0.01 + r.Float64()},
	}
}

func TestQuickThetaDecreasingInX(t *testing.T) {
	// θ^h(X) is non-increasing in X for every regime of Δ (the optimizer's
	// breakpoint enumeration relies on piecewise linearity with these
	// monotone pieces).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ch := 50 + 100*r.Float64()
		beta := ch * (0.2 + 0.6*r.Float64())
		sigma := 10 + 300*r.Float64()
		delta := []float64{math.Inf(1), math.Inf(-1), 0, 20, -20}[r.Intn(5)]
		prev := math.Inf(1)
		for i := 0; i <= 60; i++ {
			x := float64(i) * sigma / ch / 20
			th := thetaAt(ch, beta, delta, sigma, x)
			if th > prev+1e-9 {
				return false
			}
			prev = th
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(21)); err != nil {
		t.Error(err)
	}
}

func TestQuickDelayMonotoneInSigma(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randPath(r)
		gamma := 0.5 * cfg.GammaMax()
		delta := []float64{math.Inf(1), 0, 15, -15}[r.Intn(4)]
		prev := 0.0
		for _, sigma := range []float64{10, 50, 200, 1000} {
			d, _, _ := innerMinimize(cfg.H, cfg.C, gamma, cfg.Cross.Rho, delta, sigma)
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(22)); err != nil {
		t.Error(err)
	}
}

func TestQuickDelayMonotoneInDelta(t *testing.T) {
	// Larger Δ_{0,c} means more cross traffic precedes the through flow:
	// the bound must be non-decreasing in Δ.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randPath(r)
		gamma := 0.4 * cfg.GammaMax()
		sigma := 50 + 400*r.Float64()
		prev := 0.0
		for _, delta := range []float64{math.Inf(-1), -40, -5, 0, 5, 40, math.Inf(1)} {
			d, _, _ := innerMinimize(cfg.H, cfg.C, gamma, cfg.Cross.Rho, delta, sigma)
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(23)); err != nil {
		t.Error(err)
	}
}

func TestQuickOptimumFeasibleAndConsistent(t *testing.T) {
	// Whatever the configuration, the reported optimum satisfies all
	// constraints and d = X + Σθ.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randPath(r)
		gamma := (0.1 + 0.8*r.Float64()) * cfg.GammaMax()
		sigma := 10 + 500*r.Float64()
		delta := []float64{math.Inf(1), math.Inf(-1), 0, 30, -30}[r.Intn(5)]
		d, x, thetas := innerMinimize(cfg.H, cfg.C, gamma, cfg.Cross.Rho, delta, sigma)
		beta := cfg.Cross.Rho + gamma
		sum := x
		for i, th := range thetas {
			ch := cfg.C - float64(i)*gamma
			cross := math.Max(0, x+math.Min(delta, th))
			if ch*(x+th)-beta*cross < sigma-1e-6 {
				return false
			}
			sum += th
		}
		return math.Abs(sum-d) < 1e-6
	}
	if err := quick.Check(prop, quickCfg(24)); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundDecreasingInEps(t *testing.T) {
	// A laxer violation probability can only shrink the bound.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randPath(r)
		cfg.Delta0c = 0
		prev := math.Inf(1)
		for _, eps := range []float64{1e-12, 1e-9, 1e-6, 1e-3} {
			res, err := DelayBound(cfg, eps)
			if err != nil {
				return false
			}
			if res.D > prev+1e-6 {
				return false
			}
			prev = res.D
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundIncreasingInH(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randPath(r)
		cfg.Delta0c = []float64{math.Inf(1), 0, -10}[r.Intn(3)]
		prev := 0.0
		for _, h := range []int{1, 2, 4, 8} {
			cfg.H = h
			res, err := DelayBound(cfg, 1e-9)
			if err != nil {
				return false
			}
			if res.D < prev-1e-6 {
				return false
			}
			prev = res.D
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(26))}); err != nil {
		t.Error(err)
	}
}

func TestQuickHeteroMatchesHomogeneousRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randPath(r)
		deltas := []float64{math.Inf(1), 0, 12, -12, math.Inf(-1)}
		cfg.Delta0c = deltas[r.Intn(len(deltas))]
		hom, err := DelayBound(cfg, 1e-9)
		if err != nil {
			return false
		}
		nodes := make([]NodeSpec, cfg.H)
		for i := range nodes {
			nodes[i] = NodeSpec{C: cfg.C, Cross: cfg.Cross, Delta: cfg.Delta0c}
		}
		het, err := DelayBoundHetero(HeteroPath{Through: cfg.Through, Nodes: nodes}, 1e-9)
		if err != nil {
			return false
		}
		return math.Abs(het.D-hom.D) <= 2e-3*hom.D+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(27))}); err != nil {
		t.Error(err)
	}
}
