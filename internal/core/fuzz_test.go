package core

import (
	"math"
	"testing"
)

// FuzzInnerMinimize checks, for arbitrary parameters, that the exact
// solver's reported optimum is feasible and consistent, and that the
// table-driven sweep (innerSolve, with its hop-hinted prefix screens and
// early bail) reproduces the formula-per-hop reference refInnerMinimize
// bit for bit.
func FuzzInnerMinimize(f *testing.F) {
	f.Add(3, 100.0, 1.0, 40.0, 0.0, 250.0)
	f.Add(1, 80.0, 2.0, 10.0, math.Inf(1), 100.0)
	f.Add(8, 120.0, 0.5, 60.0, -25.0, 500.0)
	f.Fuzz(func(t *testing.T, h int, c, gamma, rhoc, delta, sigma float64) {
		if h < 1 || h > 512 {
			t.Skip()
		}
		bad := func(x float64) bool { return math.IsNaN(x) }
		if bad(c) || bad(gamma) || bad(rhoc) || bad(delta) || bad(sigma) {
			t.Skip()
		}
		if c <= 0 || c > 1e6 || gamma <= 0 || rhoc < 0 || sigma < 0 || sigma > 1e9 {
			t.Skip()
		}
		// Stability: C − ρc − Hγ must stay clearly positive.
		if c-rhoc-float64(h)*gamma <= 1e-6*c {
			t.Skip()
		}
		// innerSolve's domain ends where a θ ratio overflows (it returns
		// NaN there; TestInnerSolveOverflowIsNaN), and its agreement with
		// the reference ends where a candidate's X + Σθ overflows: an
		// infinite total makes the reference's tie tolerance infinite.
		// Every ratio, X and θ is at most σ/(C − ρc − Hγ), so below this
		// bound each total of H+1 terms stays finite, with room for
		// rounding.
		if !(2*float64(h+1)*(sigma/(c-rhoc-float64(h)*gamma)) < math.MaxFloat64) {
			t.Skip()
		}
		d, x, thetas := innerMinimize(h, c, gamma, rhoc, delta, sigma)
		if math.IsNaN(d) || d < 0 {
			t.Fatalf("invalid optimum %g", d)
		}
		refD, refX := refInnerMinimize(h, c, gamma, rhoc, delta, sigma)
		sameBits(t, "d", d, refD)
		sameBits(t, "xOpt", x, refX)
		if t.Failed() {
			t.FailNow()
		}
		beta := rhoc + gamma
		sum := x
		for i, th := range thetas {
			ch := c - float64(i)*gamma
			cross := x + math.Min(delta, th)
			if cross < 0 {
				cross = 0
			}
			if ch*(x+th)-beta*cross < sigma-1e-6*(1+sigma) {
				t.Fatalf("constraint %d violated at the optimum", i+1)
			}
			if th < 0 {
				t.Fatalf("negative theta %g", th)
			}
			sum += th
		}
		if math.Abs(sum-d) > 1e-6*(1+d) {
			t.Fatalf("d=%g does not equal X+Σθ=%g", d, sum)
		}
	})
}
