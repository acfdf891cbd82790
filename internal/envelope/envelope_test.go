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
