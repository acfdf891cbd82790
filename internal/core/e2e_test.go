package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
)

// bruteInner independently solves Eq. (38): grid over X, and for each node
// a binary search for the smallest feasible θ evaluated directly from the
// constraint text — no shared code with innerMinimize.
func bruteInner(h int, c, gamma, rhoc, delta, sigma float64) float64 {
	beta := rhoc + gamma
	feasible := func(ch, x, theta float64) bool {
		cross := x + math.Min(delta, theta)
		if cross < 0 {
			cross = 0
		}
		return ch*(x+theta)-beta*cross >= sigma-1e-12
	}
	minTheta := func(ch, x float64) float64 {
		if feasible(ch, x, 0) {
			return 0
		}
		lo, hi := 0.0, 1.0
		for !feasible(ch, x, hi) {
			hi *= 2
			if hi > 1e12 {
				return math.Inf(1)
			}
		}
		for i := 0; i < 80; i++ {
			mid := (lo + hi) / 2
			if feasible(ch, x, mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	best := math.Inf(1)
	xMax := 4 * sigma / (c - rhoc - float64(h)*gamma)
	if !math.IsInf(delta, 0) && -delta > 0 {
		xMax = math.Max(xMax, 2*-delta)
	}
	for i := 0; i <= 4000; i++ {
		x := xMax * float64(i) / 4000
		d := x
		for n := 1; n <= h; n++ {
			d += minTheta(c-float64(n-1)*gamma, x)
		}
		if d < best {
			best = d
		}
	}
	return best
}

func TestInnerMinimizeAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	deltas := []float64{math.Inf(1), math.Inf(-1), 0, 5, 40, -5, -40}
	for trial := 0; trial < 25; trial++ {
		h := 1 + r.Intn(8)
		c := 50 + 100*r.Float64()
		rhoc := c * (0.1 + 0.5*r.Float64())
		gamma := (c - rhoc) / float64(h+2) * (0.2 + 0.7*r.Float64())
		sigma := 10 + 400*r.Float64()
		for _, delta := range deltas {
			got, x, thetas := innerMinimize(h, c, gamma, rhoc, delta, sigma)
			want := bruteInner(h, c, gamma, rhoc, delta, sigma)
			if math.Abs(got-want) > 1e-3*want+1e-6 {
				t.Fatalf("trial %d (H=%d C=%g ρc=%g γ=%g σ=%g Δ=%g): exact %g vs brute %g",
					trial, h, c, rhoc, gamma, sigma, delta, got, want)
			}
			// The returned point must satisfy every constraint.
			beta := rhoc + gamma
			sum := x
			for i, th := range thetas {
				ch := c - float64(i)*gamma
				cross := math.Max(0, x+math.Min(delta, th))
				if ch*(x+th)-beta*cross < sigma-1e-6 {
					t.Fatalf("constraint %d violated at reported optimum", i+1)
				}
				sum += th
			}
			if math.Abs(sum-got) > 1e-9 {
				t.Fatalf("reported d=%g does not equal X+Σθ=%g", got, sum)
			}
		}
	}
}

func TestInnerMinimizeMatchesBMUXClosedForm(t *testing.T) {
	for _, h := range []int{1, 2, 5, 10} {
		c, rhoc, gamma, sigma := 100.0, 40.0, 1.0, 250.0
		got, _, thetas := innerMinimize(h, c, gamma, rhoc, math.Inf(1), sigma)
		want := BMUXClosedForm(h, c, gamma, rhoc, sigma)
		almost(t, got, want, 1e-9, "BMUX Eq. (43)")
		for i, th := range thetas {
			if th != 0 {
				t.Errorf("H=%d: BMUX optimal θ^%d = %g, want 0", h, i+1, th)
			}
		}
	}
}

func TestInnerMinimizeMatchesFIFOClosedForm(t *testing.T) {
	for _, h := range []int{1, 2, 5, 10, 20} {
		for _, util := range []float64{0.2, 0.5, 0.8} {
			c := 100.0
			rhoc := c * util * 0.5
			gamma := (c - rhoc) / float64(h+3)
			sigma := 300.0
			got, _, _ := innerMinimize(h, c, gamma, rhoc, 0, sigma)
			want := FIFOClosedForm(h, c, gamma, rhoc, sigma)
			almost(t, got, want, 1e-9*want, "FIFO Eq. (44)")
		}
	}
}

// TestPaperRecipeDomain pins PaperRecipe's entry check: every raw input
// outside the analysis' domain returns NaN instead of a finite number
// priced from an unstable or degenerate point.
func TestPaperRecipeDomain(t *testing.T) {
	// A stable point: C − ρ_c − Hγ = 100 − 40 − 3 > 0.
	const h, c, gamma, rhoc, delta, sigma = 3, 100.0, 1.0, 40.0, 0.0, 250.0
	if d := PaperRecipe(h, c, gamma, rhoc, delta, sigma); math.IsNaN(d) || d <= 0 {
		t.Fatalf("stable point: got %g, want a positive bound", d)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name                         string
		h                            int
		c, gamma, rhoc, delta, sigma float64
	}{
		{"h = 0", 0, c, gamma, rhoc, delta, sigma},
		{"h < 0", -2, c, gamma, rhoc, delta, sigma},
		{"c = 0", h, 0, gamma, rhoc, delta, sigma},
		{"c < 0", h, -100, gamma, rhoc, delta, sigma},
		{"c = +Inf", h, inf, gamma, rhoc, delta, sigma},
		{"c NaN", h, nan, gamma, rhoc, delta, sigma},
		{"gamma = 0", h, c, 0, rhoc, delta, sigma},
		{"gamma < 0", h, c, -1, rhoc, delta, sigma},
		{"gamma NaN", h, c, nan, rhoc, delta, sigma},
		{"rhoc < 0", h, c, gamma, -1, delta, sigma},
		{"rhoc NaN", h, c, gamma, nan, delta, sigma},
		{"delta NaN", h, c, gamma, rhoc, nan, sigma},
		{"sigma < 0", h, c, gamma, rhoc, delta, -1},
		{"sigma = +Inf", h, c, gamma, rhoc, delta, inf},
		{"sigma NaN", h, c, gamma, rhoc, delta, nan},
		{"unstable", 3, 100, 1, 200, delta, sigma},
		{"unstable, BMUX", 3, 100, 1, 200, inf, sigma},
		{"unstable, SP", 3, 100, 1, 200, -inf, sigma},
		{"exactly critical", 4, 100, 10, 60, delta, sigma},
	} {
		if d := PaperRecipe(tc.h, tc.c, tc.gamma, tc.rhoc, tc.delta, tc.sigma); !math.IsNaN(d) {
			t.Errorf("%s: got %g, want NaN", tc.name, d)
		}
	}
}

func TestPaperRecipeNearOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		h := 1 + r.Intn(10)
		c := 100.0
		rhoc := c * (0.1 + 0.6*r.Float64())
		gamma := (c - rhoc) / float64(h+2) * (0.3 + 0.6*r.Float64())
		sigma := 50 + 500*r.Float64()
		delta := []float64{math.Inf(1), 0, 10, -10, -200}[r.Intn(5)]
		exact, _, _ := innerMinimize(h, c, gamma, rhoc, delta, sigma)
		recipe := PaperRecipe(h, c, gamma, rhoc, delta, sigma)
		if recipe < exact-1e-6 {
			t.Fatalf("recipe %g beats the exact optimum %g (H=%d Δ=%g)", recipe, exact, h, delta)
		}
		// The paper only claims near-optimality ("K is usually close to H");
		// for Δ<0 at small H the recipe can pay up to X = −Δ extra.
		slack := 0.0
		if !math.IsInf(delta, 0) && delta < 0 {
			slack = -delta
		}
		if recipe > 3*exact+slack+1e-6 {
			t.Fatalf("recipe %g far from optimum %g (H=%d Δ=%g): not 'near-optimal'", recipe, exact, h, delta)
		}
	}
}

func paperPathConfig(h int, delta float64) PathConfig {
	return PathConfig{
		H:       h,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.5},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.5},
		Delta0c: delta,
	}
}

func TestPathBoundMatchesPaperEq34(t *testing.T) {
	// Homogeneous case with M = M_c = 1: the combined bounding function
	// must equal M(H+1)·(1−e^{−αγ})^{−2H/(H+1)}·e^{−α/(H+1)·σ}.
	for _, h := range []int{1, 2, 5, 10} {
		cfg := paperPathConfig(h, 0)
		gamma := 0.5 * cfg.GammaMax()
		res, err := DelayBoundAtGamma(cfg, 1e-9, gamma)
		if err != nil {
			t.Fatal(err)
		}
		alpha := cfg.Through.Alpha
		q := 1 - math.Exp(-alpha*gamma)
		wantM := float64(h+1) * math.Pow(q, -2*float64(h)/float64(h+1))
		wantAlpha := alpha / float64(h+1)
		almost(t, res.Bound.M, wantM, 1e-6*wantM, "Eq. (34) prefactor")
		almost(t, res.Bound.Alpha, wantAlpha, 1e-12, "Eq. (34) decay")
		// σ solves ε(σ) = eps.
		almost(t, res.Bound.At(res.Sigma), 1e-9, 1e-15, "sigma inverts the bound")
	}
}

func TestDelayBoundSchedulerOrdering(t *testing.T) {
	// For every H: strict priority <= EDF(Δ<0) <= FIFO <= EDF(Δ>0) <= BMUX.
	for _, h := range []int{1, 2, 5, 10} {
		bound := func(delta float64) float64 {
			r, err := DelayBound(paperPathConfig(h, delta), 1e-9)
			if err != nil {
				t.Fatalf("H=%d Δ=%g: %v", h, delta, err)
			}
			return r.D
		}
		sp := bound(math.Inf(-1))
		edfNeg := bound(-50)
		fifo := bound(0)
		edfPos := bound(50)
		bmux := bound(math.Inf(1))
		if !(sp <= edfNeg+1e-9 && edfNeg <= fifo+1e-9 && fifo <= edfPos+1e-9 && edfPos <= bmux+1e-9) {
			t.Errorf("H=%d: ordering violated: SP=%g EDF−=%g FIFO=%g EDF+=%g BMUX=%g",
				h, sp, edfNeg, fifo, edfPos, bmux)
		}
		if sp <= 0 || !isFiniteF(bmux) {
			t.Errorf("H=%d: degenerate bounds SP=%g BMUX=%g", h, sp, bmux)
		}
	}
}

func TestDelayBoundGrowsWithH(t *testing.T) {
	prev := 0.0
	for _, h := range []int{1, 2, 4, 8, 16} {
		r, err := DelayBound(paperPathConfig(h, 0), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if r.D <= prev {
			t.Fatalf("H=%d: delay bound %g not increasing (prev %g)", h, r.D, prev)
		}
		prev = r.D
	}
}

func TestDelayBoundGammaOptimization(t *testing.T) {
	cfg := paperPathConfig(5, 0)
	best, err := DelayBound(cfg, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	gmax := cfg.GammaMax()
	for _, frac := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95} {
		r, err := DelayBoundAtGamma(cfg, 1e-9, frac*gmax)
		if err != nil {
			t.Fatal(err)
		}
		if best.D > r.D+1e-6 {
			t.Errorf("optimized bound %g worse than fixed gamma %g: %g", best.D, frac*gmax, r.D)
		}
	}

	// The γ landscape is a valley: small slacks inflate the union-bound
	// factor 1/(1−e^{−αγ}), large ones erode the leftover rate. Sampled
	// on a 32-point grid at α = 0.1, the grid argmin is interior, and the
	// optimized bound is at least as good as every sample.
	valley := PathConfig{
		H:       5,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 25, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 25, Alpha: 0.1},
	}
	gammas := make([]float64, 32)
	for i := range gammas {
		gammas[i] = valley.GammaMax() * float64(i+1) / float64(len(gammas)+1)
	}
	grid, err := new(Scratch).DelayBoundAtGammas(valley, 1e-9, gammas, nil)
	if err != nil {
		t.Fatal(err)
	}
	gridMin := math.Inf(1)
	for _, r := range grid {
		gridMin = math.Min(gridMin, r.D)
	}
	if first, last := grid[0].D, grid[len(grid)-1].D; !(gridMin < first && gridMin < last) {
		t.Errorf("grid argmin %g does not beat the grid edges (%g, %g)", gridMin, first, last)
	}
	opt, err := DelayBound(valley, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if opt.D > gridMin*(1+1e-12) {
		t.Errorf("optimized bound %g worse than the grid argmin %g", opt.D, gridMin)
	}
}

func TestDelayBoundValidation(t *testing.T) {
	cfg := paperPathConfig(3, 0)
	if _, err := DelayBound(cfg, 0); err == nil {
		t.Error("eps=0 must be rejected")
	}
	if _, err := DelayBound(cfg, 1); err == nil {
		t.Error("eps=1 must be rejected")
	}
	bad := cfg
	bad.H = 0
	if _, err := DelayBound(bad, 1e-9); err == nil {
		t.Error("H=0 must be rejected")
	}
	over := cfg
	over.Cross.Rho = 90 // 90 + 15 > 100
	if _, err := DelayBound(over, 1e-9); !errors.Is(err, ErrUnstable) {
		t.Errorf("overload must yield ErrUnstable, got %v", err)
	}
}

func TestFIFOApproachesBMUXOnLongPaths(t *testing.T) {
	// The paper's headline observation: FIFO delay bounds converge to the
	// BMUX bounds as H grows (Section IV discussion and Fig. 2).
	ratioAt := func(h int) float64 {
		fifo, err := DelayBound(paperPathConfig(h, 0), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		bmux, err := DelayBound(paperPathConfig(h, math.Inf(1)), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return fifo.D / bmux.D
	}
	r1, r10 := ratioAt(1), ratioAt(10)
	if r1 >= 1-1e-9 {
		t.Errorf("at H=1 FIFO should beat BMUX clearly: ratio %g", r1)
	}
	if r10 < r1 {
		t.Errorf("FIFO/BMUX ratio should increase with H: %g → %g", r1, r10)
	}
	if r10 < 0.9 {
		t.Errorf("at H=10 FIFO should be within 10%% of BMUX, ratio %g", r10)
	}
}

func TestHeteroMatchesHomogeneous(t *testing.T) {
	cfg := paperPathConfig(5, 0)
	hom, err := DelayBound(cfg, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]NodeSpec, cfg.H)
	for i := range nodes {
		nodes[i] = NodeSpec{C: cfg.C, Cross: cfg.Cross, Delta: cfg.Delta0c}
	}
	het, err := DelayBoundHetero(HeteroPath{Through: cfg.Through, Nodes: nodes}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, het.D, hom.D, 1e-3*hom.D, "identical nodes: hetero equals homogeneous")
}

func TestHeteroBottleneckDominates(t *testing.T) {
	through := envelope.EBB{M: 1, Rho: 10, Alpha: 0.5}
	cross := envelope.EBB{M: 1, Rho: 20, Alpha: 0.5}
	fast := NodeSpec{C: 200, Cross: cross, Delta: 0}
	slow := NodeSpec{C: 60, Cross: cross, Delta: 0}

	allFast, err := DelayBoundHetero(HeteroPath{Through: through, Nodes: []NodeSpec{fast, fast, fast}}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	oneSlow, err := DelayBoundHetero(HeteroPath{Through: through, Nodes: []NodeSpec{fast, slow, fast}}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if oneSlow.D <= allFast.D {
		t.Errorf("a bottleneck node must worsen the bound: %g vs %g", oneSlow.D, allFast.D)
	}
}

func TestEDFProvisionedFixedPoint(t *testing.T) {
	cfg := paperPathConfig(5, 0) // Delta0c ignored by EDFProvisioned
	res, d0, err := EDFProvisioned(cfg, 1e-9, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Self-consistency: d*_0 = D/H.
	almost(t, d0, res.D/float64(cfg.H), 1e-6*d0, "deadline ties to the bound")

	// With ratio 10 (cross deadline much looser) EDF must beat FIFO and BMUX.
	fifo, err := DelayBound(paperPathConfig(5, 0), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.D >= fifo.D {
		t.Errorf("EDF (favourable deadlines) %g should beat FIFO %g", res.D, fifo.D)
	}

	// Ratio 1 degenerates to FIFO.
	resFIFO, _, err := EDFProvisioned(cfg, 1e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, resFIFO.D, fifo.D, 1e-3*fifo.D, "ratio 1 equals FIFO")
}

func TestAdditiveBoundBlowsUp(t *testing.T) {
	// The additive baseline must (a) never beat the network-service-curve
	// bound by more than numerical noise at H=1, and (b) blow up
	// superlinearly while the network bound stays essentially linear.
	netD := func(h int) float64 {
		r, err := DelayBound(paperPathConfig(h, math.Inf(1)), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return r.D
	}
	addD := func(h int) float64 {
		r, err := AdditiveBound(paperPathConfig(h, math.Inf(1)), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return r.D
	}

	if a, n := addD(1), netD(1); a < n*0.99 {
		t.Errorf("H=1: additive %g should not beat network bound %g", a, n)
	}
	// Superlinearity: per-hop cost of the additive bound grows with H.
	a4, a8 := addD(4), addD(8)
	n4, n8 := netD(4), netD(8)
	addGrowth := a8 / a4
	netGrowth := n8 / n4
	if addGrowth <= netGrowth {
		t.Errorf("additive growth %g should exceed network growth %g", addGrowth, netGrowth)
	}
	if addGrowth < 2.5 {
		t.Errorf("additive bound growth H=4→8 is %g, expected clearly superlinear (>2.5×)", addGrowth)
	}
	if a8 < 3*n8 {
		t.Errorf("at H=8 the additive bound %g should dwarf the network bound %g", a8, n8)
	}
}

func isFiniteF(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
