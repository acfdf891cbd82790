package minplus

import (
	"errors"
	"math"
	"testing"
)

// sampleGrid returns a modest grid of probe times covering the interesting
// region of the given curves.
func sampleGrid(horizon float64) []float64 {
	var ts []float64
	for i := 0; i <= 200; i++ {
		ts = append(ts, horizon*float64(i)/200)
	}
	return ts
}

// bruteConv numerically approximates (f ∗ g)(t) by dense search over the
// split point. Used as an oracle for the exact implementation.
func bruteConv(f, g Curve, t float64, steps int) float64 {
	best := math.Inf(1)
	for i := 0; i <= steps; i++ {
		s := t * float64(i) / float64(steps)
		v := f.Eval(s) + g.Eval(t-s)
		if v < best {
			best = v
		}
	}
	return best
}

func TestAddMinMaxPointwise(t *testing.T) {
	f := Affine(2, 5)
	g := RateLatency(6, 1)
	sum := Add(f, g)
	mn := Min(f, g)
	mx := Max(f, g)
	for _, x := range sampleGrid(10) {
		fv, gv := f.Eval(x), g.Eval(x)
		almost(t, sum.Eval(x), fv+gv, 1e-9, "Add")
		almost(t, mn.Eval(x), math.Min(fv, gv), 1e-9, "Min")
		almost(t, mx.Eval(x), math.Max(fv, gv), 1e-9, "Max")
	}
}

func TestMinInsertsCrossing(t *testing.T) {
	// f = 5 + 2t and g = 6t cross at t = 1.25, which is not a breakpoint of
	// either curve.
	f := Affine(2, 5)
	g := ConstantRate(6)
	mn := Min(f, g)
	almost(t, mn.Eval(1.25), 7.5, 1e-9, "crossing value")
	almost(t, mn.Eval(1), 6, 1e-9, "below crossing g wins")
	almost(t, mn.Eval(2), 9, 1e-9, "above crossing f wins")
}

func TestSubPos(t *testing.T) {
	// [Ct − (ρt+b)]_+ : zero until b/(C−ρ), then rising at C−ρ — the shape
	// of a blind-multiplexing leftover service curve.
	c := ConstantRate(10)
	cross := Affine(4, 12)
	left := SubPos(c, cross)
	almost(t, left.Eval(0), 0, 0, "clipped at 0")
	almost(t, left.Eval(1), 0, 1e-9, "still clipped")
	almost(t, left.Eval(2), 0, 1e-9, "zero exactly at crossing")
	almost(t, left.Eval(4), 12, 1e-9, "rising part") // 10*4 − (16+12)
	if !left.NonDecreasing() {
		t.Error("leftover curve should be non-decreasing for a stable node")
	}
}

func TestSubPosInfinityRules(t *testing.T) {
	f := ConstantRate(1)
	g := Delay(3) // +∞ from t=3
	r := SubPos(f, g)
	almost(t, r.Eval(2), 2, 1e-9, "finite region: f−0")
	almost(t, r.Eval(4), 0, 0, "g=+∞ clips to zero")

	r2 := SubPos(g, f)
	almost(t, r2.Eval(2), 0, 0, "before the jump")
	almost(t, r2.Eval(4), math.Inf(1), 0, "f=+∞ dominates")
}

func TestShiftRight(t *testing.T) {
	f := Affine(2, 5)
	s := mustCurve(ShiftRight(f, 4))
	almost(t, s.Eval(2), 0, 0, "shift: zero before d")
	almost(t, s.Eval(4), 5, 1e-9, "shift: original value at d")
	almost(t, s.Eval(6), 9, 1e-9, "shift: translated")
	if got := mustCurve(ShiftRight(f, 0)); !AlmostEqual(got, f, 1e-12, 10) {
		t.Error("ShiftRight by 0 should be identity")
	}
}

// mustCurve unwraps a (Curve, error) pair inside test expressions; the
// operations under test only fail on invalid arguments, so a failure here
// is a test bug worth a panic.
func mustCurve(c Curve, err error) Curve {
	if err != nil {
		panic(err)
	}
	return c
}

func TestScaleShiftRejectBadArguments(t *testing.T) {
	f := Affine(2, 5)
	for name, err := range map[string]error{
		"ShiftRight -1":  second(ShiftRight(f, -1)),
		"ShiftRight NaN": second(ShiftRight(f, math.NaN())),
		"ShiftLeft -1":   second(ShiftLeft(f, -1)),
		"ShiftLeft +Inf": second(ShiftLeft(f, math.Inf(1))),
	} {
		if !errors.Is(err, ErrBadArgument) {
			t.Errorf("%s: want ErrBadArgument, got %v", name, err)
		}
	}
}

func second(_ Curve, err error) error { return err }

func TestZeroUntil(t *testing.T) {
	f := ConstantRate(3)
	g := ZeroUntil(f, 2)
	almost(t, g.Eval(1), 0, 0, "gated region")
	almost(t, g.Eval(2), 6, 1e-9, "jump at θ (right-continuous)")
	almost(t, g.Eval(4), 12, 1e-9, "beyond θ")
	almost(t, g.EvalLeft(2), 0, 0, "left limit at θ")

	if got := ZeroUntil(f, 0); !AlmostEqual(got, f, 1e-12, 10) {
		t.Error("ZeroUntil with θ=0 should be identity")
	}

	inf := Delay(1)
	gi := ZeroUntil(inf, 3)
	almost(t, gi.Eval(2), 0, 0, "gate past f's own +∞ region")
	almost(t, gi.Eval(3), math.Inf(1), 0, "+∞ resumes at θ")
}

func TestConvolveIdentities(t *testing.T) {
	f := Affine(2, 5)

	// δ_0 is the neutral element.
	if got := Convolve(f, Delay(0)); !AlmostEqual(got, f, 1e-9, 20) {
		t.Errorf("f ∗ δ_0 = %v, want %v", got, f)
	}
	// Convolution with δ_d: under the inf over s ∈ [0,t] and the
	// right-continuous burst-at-zero convention, (γ_{r,b} ∗ δ_d)(t) equals
	// f(0)=b on [0,d) and f(t−d) afterwards.
	got := Convolve(f, Delay(3))
	want, err := FromSegments(math.Inf(1),
		Segment{V0: 5},
		Segment{T0: 3, V0: 5, Slope: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(got, want, 1e-9, 20) {
		t.Errorf("f ∗ δ_3 = %v, want %v", got, want)
	}

	// Two rate-latency curves: β_{R1,T1} ∗ β_{R2,T2} = β_{min(R1,R2), T1+T2}.
	b1 := RateLatency(10, 2)
	b2 := RateLatency(6, 1)
	conv := Convolve(b1, b2)
	wantRL := RateLatency(6, 3)
	if !AlmostEqual(conv, wantRL, 1e-9, 50) {
		t.Errorf("β∗β = %v, want %v", conv, wantRL)
	}

	// Two leaky buckets (right-continuous convention, bursts add at 0):
	// (γ_{r1,b1} ∗ γ_{r2,b2})(t) = b1+b2+min(r1,r2)·t.
	lb := Convolve(Affine(2, 5), Affine(3, 1))
	for _, x := range sampleGrid(10) {
		almost(t, lb.Eval(x), 6+2*x, 1e-9, "γ∗γ")
	}
}

func TestConvolveAgainstBruteForce(t *testing.T) {
	tests := []struct {
		name string
		f, g Curve
	}{
		{"affine vs rate-latency", Affine(2, 5), RateLatency(6, 1)},
		{"rate-latency pair", RateLatency(3, 4), RateLatency(8, 0.5)},
		{"concave staircase vs convex", mustPoints(t, 1,
			[2]float64{0, 0}, [2]float64{1, 5}, [2]float64{3, 8}, [2]float64{6, 10}),
			RateLatency(4, 2)},
		{"nonconvex vs affine", mustPoints(t, 5,
			[2]float64{0, 0}, [2]float64{2, 1}, [2]float64{3, 6}, [2]float64{5, 7}),
			Affine(2, 3)},
		{"with infinite region", Affine(1, 0), Delay(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			conv := Convolve(tt.f, tt.g)
			for _, x := range sampleGrid(12) {
				// The brute-force oracle discretizes the split point, so it
				// can only overestimate the true infimum: require
				// got <= oracle (up to fp noise) and got >= oracle − gridErr.
				want := bruteConv(tt.f, tt.g, x, 4000)
				got := conv.Eval(x)
				if math.IsInf(want, 1) {
					if !math.IsInf(got, 1) && got < 1e15 {
						t.Fatalf("conv(%g) = %g, want +Inf", x, got)
					}
					continue
				}
				if got > want+1e-9 {
					t.Fatalf("conv(%g) = %g above brute-force %g", x, got, want)
				}
				if got < want-0.05 {
					t.Fatalf("conv(%g) = %g far below brute-force %g", x, got, want)
				}
			}
		})
	}
}

func TestConvolveCommutative(t *testing.T) {
	f := mustPoints(t, 2, [2]float64{0, 1}, [2]float64{2, 3}, [2]float64{4, 9})
	g := RateLatency(5, 1.5)
	a := Convolve(f, g)
	b := Convolve(g, f)
	if !AlmostEqual(a, b, 1e-9, 30) {
		t.Errorf("convolution not commutative:\n f∗g = %v\n g∗f = %v", a, b)
	}
}

func TestConvolveAssociative(t *testing.T) {
	f := Affine(3, 2)
	g := RateLatency(7, 1)
	h := RateLatency(5, 0.5)
	left := Convolve(Convolve(f, g), h)
	right := Convolve(f, Convolve(g, h))
	if !AlmostEqual(left, right, 1e-6, 30) {
		t.Errorf("convolution not associative:\n (f∗g)∗h = %v\n f∗(g∗h) = %v", left, right)
	}
}

func mustPoints(t *testing.T, tail float64, pts ...[2]float64) Curve {
	t.Helper()
	c, err := FromPoints(tail, pts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestShiftLeft(t *testing.T) {
	f := RateLatency(4, 3)
	s := mustCurve(ShiftLeft(f, 2))
	almost(t, s.Eval(0), 0, 0, "f(2) = 0")
	almost(t, s.Eval(1), 0, 0, "f(3) = 0")
	almost(t, s.Eval(2), 4, 1e-9, "f(4) = 4")
	almost(t, s.Eval(5), 16, 1e-9, "f(7) = 16")

	if got := mustCurve(ShiftLeft(f, 0)); !AlmostEqual(got, f, 1e-12, 10) {
		t.Error("ShiftLeft by 0 should be identity")
	}

	// Shifting past the +∞ boundary yields an immediately-infinite curve.
	d := Delay(3)
	sd := mustCurve(ShiftLeft(d, 5))
	almost(t, sd.Eval(0), math.Inf(1), 0, "past the boundary")

	sd2 := mustCurve(ShiftLeft(d, 1))
	almost(t, sd2.Eval(1), 0, 0, "δ_3 shifted left by 1 is δ_2 (finite part)")
	almost(t, sd2.Eval(2), math.Inf(1), 0, "δ_3 shifted left by 1 blows up at 2")

	// Round trip: ShiftRight then ShiftLeft is identity for curves with
	// f(0)=0 whose first segment is flat.
	g := RateLatency(2, 1)
	if got := mustCurve(ShiftLeft(mustCurve(ShiftRight(g, 3)), 3)); !AlmostEqual(got, g, 1e-9, 20) {
		t.Errorf("shift round trip: got %v, want %v", got, g)
	}
}

func TestLowerNonDecreasing(t *testing.T) {
	// Curve that rises to 20, drops to 8, then rises again at slope 7 —
	// the shape of a Theorem-1 leftover with negative Δ.
	f, err := FromSegments(math.Inf(1),
		Segment{Slope: 10},
		Segment{T0: 2, V0: 8, Slope: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := LowerNonDecreasing(f)
	if err != nil {
		t.Fatal(err)
	}
	if !g.NonDecreasing() {
		t.Fatalf("closure not non-decreasing: %v", g)
	}
	// Closure: min over the future — 10t until it reaches 8 (t=0.8), flat
	// at 8 until t=2, then 8+7(t−2).
	almost(t, g.Eval(0.5), 5, 1e-9, "below the cap")
	almost(t, g.Eval(1), 8, 1e-9, "capped at the future minimum")
	almost(t, g.Eval(1.9), 8, 1e-9, "flat until the dip")
	almost(t, g.Eval(3), 15, 1e-9, "follows f after the dip")
	// Closure never exceeds f.
	for i := 0; i <= 100; i++ {
		x := float64(i) * 0.05
		if g.Eval(x) > f.Eval(x)+1e-9 {
			t.Fatalf("closure exceeds f at %g", x)
		}
	}

	// Identity on already-monotone curves.
	id, err := LowerNonDecreasing(Affine(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(id, Affine(2, 3), 1e-12, 10) {
		t.Error("closure should be the identity for monotone curves")
	}

	// Negative tail slope: no finite closure.
	dec, err := FromSegments(math.Inf(1), Segment{V0: 5, Slope: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowerNonDecreasing(dec); err == nil {
		t.Error("negative tail slope must be rejected")
	}
}
