package envelope

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestExpBoundValidateAndEval(t *testing.T) {
	tests := []struct {
		name    string
		b       ExpBound
		wantErr bool
	}{
		{"ok", ExpBound{M: 2, Alpha: 0.5}, false},
		{"zero M ok", ExpBound{M: 0, Alpha: 1}, false},
		{"negative M", ExpBound{M: -1, Alpha: 1}, true},
		{"zero alpha", ExpBound{M: 1, Alpha: 0}, true},
		{"nan", ExpBound{M: math.NaN(), Alpha: 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.b.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	b := ExpBound{M: 4, Alpha: 2}
	almost(t, b.At(0), 4, 1e-12, "At(0)")
	almost(t, b.At(1), 4*math.Exp(-2), 1e-12, "At(1)")
}

func TestSigmaFor(t *testing.T) {
	b := ExpBound{M: 10, Alpha: 0.5}
	sigma := b.SigmaFor(1e-9)
	almost(t, b.At(sigma), 1e-9, 1e-15, "round trip")
	almost(t, b.SigmaFor(20), 0, 0, "target above M")
	if !math.IsInf(b.SigmaFor(0), 1) {
		t.Error("eps=0 needs infinite sigma")
	}
}

func TestMergeHomogeneous(t *testing.T) {
	// N identical bounds merge to (N·M, α/N).
	b := ExpBound{M: 3, Alpha: 0.8}
	got, err := Merge(b, b, b, b)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got.M, 12, 1e-9, "merged M")
	almost(t, got.Alpha, 0.2, 1e-12, "merged alpha")
}

func TestMergeSingleIsIdentity(t *testing.T) {
	b := ExpBound{M: 5, Alpha: 1.3}
	got, err := Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got.M, 5, 1e-9, "M unchanged")
	almost(t, got.Alpha, 1.3, 1e-12, "alpha unchanged")
}

func TestMergeSkipsZeroTerms(t *testing.T) {
	b := ExpBound{M: 5, Alpha: 1.3}
	got, err := Merge(b, ExpBound{M: 0, Alpha: 9})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got.M, 5, 1e-9, "zero term ignored")
	almost(t, got.Alpha, 1.3, 1e-12, "alpha unchanged")
}

// bruteMergeAt minimizes Σ M_j e^{−α_j σ_j} subject to Σσ_j = σ, σ_j >= 0,
// by bisecting on the KKT multiplier λ: at the optimum,
// σ_j = [ln(M_j α_j / λ)/α_j]_+ (water-filling), and Σσ_j(λ) is strictly
// decreasing in λ.
func bruteMergeAt(bounds []ExpBound, sigma float64) float64 {
	sumFor := func(lam float64) (sum, total float64) {
		for _, b := range bounds {
			sj := math.Max(0, math.Log(b.M*b.Alpha/lam)/b.Alpha)
			sum += sj
			total += b.At(sj)
		}
		return sum, total
	}
	lo, hi := 1e-300, 1e300
	for i := 0; i < 300; i++ {
		mid := math.Sqrt(lo * hi)
		if s, _ := sumFor(mid); s > sigma {
			lo = mid
		} else {
			hi = mid
		}
	}
	_, total := sumFor(lo)
	return total
}

func TestMergeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(3)
		bounds := make([]ExpBound, n)
		for i := range bounds {
			bounds[i] = ExpBound{M: 0.5 + 5*r.Float64(), Alpha: 0.1 + 2*r.Float64()}
		}
		got, err := Merge(bounds...)
		if err != nil {
			t.Fatal(err)
		}
		for _, sigma := range []float64{5, 20, 60} {
			// The closed form is the unconstrained Lagrange solution; the
			// KKT oracle respects σ_j >= 0, so oracle >= closed form, with
			// equality whenever all σ_j are interior (large σ).
			want := bruteMergeAt(bounds, sigma)
			have := got.At(sigma)
			if have > want*(1+1e-9)+1e-12 {
				t.Fatalf("trial %d σ=%g: Merge gives %g above KKT optimum %g (bounds %+v)",
					trial, sigma, have, want, bounds)
			}
			if sigma >= 20 && have < want*0.999 {
				t.Fatalf("trial %d σ=%g: Merge gives %g well below KKT optimum %g — formula error (bounds %+v)",
					trial, sigma, have, want, bounds)
			}
		}
	}
}

func TestMergeIsLowerBoundOfAnySplit(t *testing.T) {
	// The merged bound must not exceed the value of any explicit split.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := ExpBound{M: 0.5 + 5*r.Float64(), Alpha: 0.1 + 2*r.Float64()}
		b := ExpBound{M: 0.5 + 5*r.Float64(), Alpha: 0.1 + 2*r.Float64()}
		m, err := Merge(a, b)
		if err != nil {
			return false
		}
		for i := 0; i <= 20; i++ {
			sigma := float64(i) * 3
			for j := 0; j <= 10; j++ {
				s1 := sigma * float64(j) / 10
				if m.At(sigma) > a.At(s1)+b.At(sigma-s1)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestEBBValidate(t *testing.T) {
	tests := []struct {
		name    string
		e       EBB
		wantErr bool
	}{
		{"ok", EBB{M: 1, Rho: 5, Alpha: 0.3}, false},
		{"M below 1", EBB{M: 0.5, Rho: 5, Alpha: 0.3}, true},
		{"negative rate", EBB{M: 1, Rho: -1, Alpha: 0.3}, true},
		{"zero alpha", EBB{M: 1, Rho: 5, Alpha: 0}, true},
		{"infinite M", EBB{M: math.Inf(1), Rho: 5, Alpha: 0.3}, true},
		{"infinite rate", EBB{M: 1, Rho: math.Inf(1), Alpha: 0.3}, true},
		{"infinite alpha", EBB{M: 1, Rho: 5, Alpha: math.Inf(1)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.e.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSamplePathFormula(t *testing.T) {
	e := EBB{M: 2, Rho: 10, Alpha: 0.4}
	rate, bound, err := e.SamplePath(0.5)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, rate, 10.5, 1e-12, "rate gains gamma")
	wantM := 2 / (1 - math.Exp(-0.4*0.5))
	almost(t, bound.M, wantM, 1e-9, "prefactor M/(1−e^{−αγ})")
	almost(t, bound.Alpha, 0.4, 1e-12, "alpha unchanged")

	if _, _, err := e.SamplePath(0); err == nil {
		t.Error("gamma=0 must be rejected")
	}
}

func TestSamplePathEnvelopeShape(t *testing.T) {
	e := EBB{M: 1, Rho: 3, Alpha: 1}
	env, err := e.SamplePathEnvelope(1)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, env.G.Eval(10), 40, 1e-9, "G(t) = (rho+gamma)t")
	if env.Eps(0) <= 1 {
		t.Errorf("eps(0) = %g should exceed 1 for this M", env.Eps(0))
	}
	if e1, e2 := env.Eps(5), env.Eps(10); e1 <= e2 {
		t.Error("bounding function must decay")
	}
}

func TestSumEBBHomogeneous(t *testing.T) {
	f := EBB{M: 1, Rho: 2, Alpha: 0.6}
	agg, err := SumEBB(f, f, f)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, agg.Rho, 6, 1e-12, "rates add")
	almost(t, agg.Alpha, 0.2, 1e-12, "decay splits")
	almost(t, agg.M, 3, 1e-9, "prefactor N·M")
}

func TestDeterministicAsEBB(t *testing.T) {
	// A leaky bucket (rho=5, burst=12) encoded as EBB with finite alpha:
	// at sigma=burst the bound is exactly 1.
	e := Deterministic(5, 12, 2)
	almost(t, e.Bound().At(12), 1, 1e-9, "bound hits 1 at the burst size")
	if e.Bound().At(13) >= 1 {
		t.Error("beyond the burst the bound must drop below 1")
	}
}

func TestFitEBBOnCBRTrace(t *testing.T) {
	trace := make([]float64, 5000)
	for i := range trace {
		trace[i] = 2
	}
	e, err := FitEBB(trace, 0.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, e.Rho, 2, 1e-9, "CBR rate")
	almost(t, e.M, 1, 1e-9, "CBR needs no prefactor above 1")
}

func TestFitEBBCoversTrace(t *testing.T) {
	// A bursty trace: the fitted parameters must cover every probed
	// exceedance on the trace itself.
	r := rand.New(rand.NewSource(5))
	trace := make([]float64, 20000)
	for i := range trace {
		if r.Float64() < 0.1 {
			trace[i] = 10
		}
	}
	alpha := 0.3
	e, err := FitEBB(trace, alpha, 500)
	if err != nil {
		t.Fatal(err)
	}
	if e.M < 1 || e.Rho <= 0 {
		t.Fatalf("degenerate fit: %+v", e)
	}
	cum := make([]float64, len(trace)+1)
	for i, x := range trace {
		cum[i+1] = cum[i] + x
	}
	for _, n := range []int{1, 10, 100} {
		for _, sigma := range []float64{2, 8, 20} {
			exceed, count := 0, 0
			for s := 0; s+n <= len(trace); s++ {
				count++
				if cum[s+n]-cum[s] > e.Rho*float64(n)+sigma {
					exceed++
				}
			}
			freq := float64(exceed) / float64(count)
			// The fit probes a threshold grid; on intermediate thresholds
			// allow a small estimation factor.
			if freq > 3*e.Bound().At(sigma)+1e-3 {
				t.Errorf("window %d sigma %g: freq %g above fitted bound %g",
					n, sigma, freq, e.Bound().At(sigma))
			}
		}
	}
}

func TestFitEBBValidation(t *testing.T) {
	if _, err := FitEBB(nil, 1, 10); err == nil {
		t.Error("empty trace must be rejected")
	}
	if _, err := FitEBB([]float64{1, 2}, 0, 10); err == nil {
		t.Error("alpha=0 must be rejected")
	}
	if _, err := FitEBB([]float64{1, -2, 3}, 1, 10); err == nil {
		t.Error("negative trace values must be rejected")
	}
}

func TestSumEBBValidation(t *testing.T) {
	if _, err := SumEBB(); err == nil {
		t.Error("empty sum must be rejected")
	}
	if _, err := SumEBB(EBB{M: 0.1, Rho: 1, Alpha: 1}); err == nil {
		t.Error("invalid flow must be rejected")
	}
	// Single flow passes through (modulo the M >= 1 floor).
	e, err := SumEBB(EBB{M: 2, Rho: 3, Alpha: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, e.Rho, 3, 0, "single-flow rate")
	almost(t, e.Alpha, 0.7, 0, "single-flow alpha")
}
