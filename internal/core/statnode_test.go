package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
)

func statFlow(rho, alpha, delta float64) StatFlow {
	return StatFlow{EBB: envelope.EBB{M: 1, Rho: rho, Alpha: alpha}, Delta: delta}
}

func TestStatNodeFIFOClosedForm(t *testing.T) {
	// FIFO (all Δ=0): d = σ/C with σ from the merged bounding functions.
	through := envelope.EBB{M: 1, Rho: 15, Alpha: 0.3}
	cross := []StatFlow{statFlow(20, 0.3, 0), statFlow(25, 0.3, 0)}
	res, err := DelayBoundStatNode(100, through, cross, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.D, res.Sigma/100, 1e-9, "FIFO single node: d = σ/C")
}

func TestStatNodeBMUXClosedForm(t *testing.T) {
	through := envelope.EBB{M: 1, Rho: 15, Alpha: 0.3}
	cross := []StatFlow{statFlow(20, 0.3, math.Inf(1)), statFlow(25, 0.3, math.Inf(1))}
	res, err := DelayBoundStatNode(100, through, cross, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Sigma / (100 - (20 + res.Gamma) - (25 + res.Gamma))
	almost(t, res.D, want, 1e-9, "BMUX single node: d = σ/(C−Σρ'c)")
}

func TestStatNodeMatchesE2EAtH1(t *testing.T) {
	// With a single cross aggregate the multi-flow node analysis must agree
	// with the H=1 end-to-end machinery for every Δ, also under a cross
	// load that strict priority must not charge the through traffic for.
	for _, rhoc := range []float64{35, 80} {
		for _, delta := range []float64{math.Inf(-1), -8, 0, 8, math.Inf(1)} {
			through := envelope.EBB{M: 1, Rho: 15, Alpha: 0.2}
			crossEBB := envelope.EBB{M: 1, Rho: rhoc, Alpha: 0.2}
			node, err := DelayBoundStatNode(100, through, []StatFlow{{EBB: crossEBB, Delta: delta}}, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			path, err := DelayBound(PathConfig{H: 1, C: 100, Through: through, Cross: crossEBB, Delta0c: delta}, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			almost(t, node.D, path.D, 2e-3*path.D, fmt.Sprintf("single node vs H=1 path, ρ_c=%g Δ=%g", rhoc, delta))
		}
	}
}

func TestStatNodeEDFDeadlineMonotone(t *testing.T) {
	// Three-class EDF: tightening the tagged flow's deadline (making all
	// Δ_{j,k} = d*_j − d*_k smaller) can only reduce its bound.
	through := envelope.EBB{M: 1, Rho: 10, Alpha: 0.3}
	mkCross := func(dj float64) []StatFlow {
		return []StatFlow{
			statFlow(20, 0.3, dj-5),  // class with deadline 5
			statFlow(25, 0.3, dj-40), // class with deadline 40
		}
	}
	prev := 0.0
	for i, dj := range []float64{1, 5, 20, 60} {
		res, err := DelayBoundStatNode(100, through, mkCross(dj), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.D < prev-1e-9 {
			t.Fatalf("bound not monotone in the own deadline: d*=%g gives %g < %g", dj, res.D, prev)
		}
		prev = res.D
	}
}

func TestStatNodeExcludesLowerPriority(t *testing.T) {
	// Flows with Δ=−∞ must not affect the bound at all.
	through := envelope.EBB{M: 1, Rho: 15, Alpha: 0.3}
	base := []StatFlow{statFlow(20, 0.3, 0)}
	with := append(append([]StatFlow(nil), base...), statFlow(60, 0.3, math.Inf(-1)))
	a, err := DelayBoundStatNode(100, through, base, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DelayBoundStatNode(100, through, with, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, b.D, a.D, 1e-9, "lower-priority flows are invisible")
}

func TestStatNodeValidation(t *testing.T) {
	through := envelope.EBB{M: 1, Rho: 15, Alpha: 0.3}
	if _, err := DelayBoundStatNode(0, through, nil, 1e-9); err == nil {
		t.Error("zero capacity must be rejected")
	}
	if _, err := DelayBoundStatNode(100, through, nil, 0); err == nil {
		t.Error("eps=0 must be rejected")
	}
	if _, err := DelayBoundStatNode(100, through, []StatFlow{statFlow(90, 0.3, 0)}, 1e-9); err == nil {
		t.Error("overload must be rejected")
	}
	if _, err := DelayBoundStatNode(100, through, []StatFlow{statFlow(10, 0.3, math.NaN())}, 1e-9); err == nil {
		t.Error("NaN delta must be rejected")
	}
	bad := through
	bad.M = 0.5
	if _, err := DelayBoundStatNode(100, bad, nil, 1e-9); err == nil {
		t.Error("invalid tagged EBB must be rejected")
	}
}

func TestStatNodeSolveAgainstBisection(t *testing.T) {
	// The exact breakpoint solver must agree with a generic bisection on
	// the schedulability condition for random flow sets.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		c := 100.0
		through := envelope.EBB{M: 1, Rho: 5 + 15*r.Float64(), Alpha: 0.1 + r.Float64()}
		n := 1 + r.Intn(5)
		var cross []StatFlow
		total := through.Rho
		for i := 0; i < n; i++ {
			rho := 5 + 15*r.Float64()
			if total+rho > 0.9*c {
				break
			}
			total += rho
			delta := []float64{math.Inf(1), 0, 5 * r.Float64(), -5 * r.Float64(), 30 * r.Float64()}[r.Intn(5)]
			cross = append(cross, statFlow(rho, 0.1+r.Float64(), delta))
		}
		res, err := DelayBoundStatNode(c, through, cross, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		// Independent check at the chosen gamma and sigma.
		lhs := func(d float64) float64 {
			s := 0.0
			for _, f := range cross {
				if math.IsInf(f.Delta, -1) {
					continue
				}
				s += (f.EBB.Rho + res.Gamma) * math.Max(0, math.Min(f.Delta, d))
			}
			return s + res.Sigma - c*d
		}
		lo, hi := 0.0, 1e7
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if lhs(mid) <= 0 {
				hi = mid
			} else {
				lo = mid
			}
		}
		if math.Abs(hi-res.D) > 1e-6*(1+res.D) {
			t.Fatalf("trial %d: solver %g vs bisection %g", trial, res.D, hi)
		}
	}
}
