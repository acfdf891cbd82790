package minplus

import (
	"math"
	"strings"
	"testing"
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

func TestFromSegmentsValidation(t *testing.T) {
	tests := []struct {
		name    string
		infFrom float64
		segs    []Segment
		wantErr bool
	}{
		{name: "empty", infFrom: math.Inf(1), wantErr: true},
		{name: "first not at zero", infFrom: math.Inf(1), segs: []Segment{{T0: 1}}, wantErr: true},
		{name: "unsorted", infFrom: math.Inf(1), segs: []Segment{{T0: 0}, {T0: 2}, {T0: 1}}, wantErr: true},
		{name: "duplicate start", infFrom: math.Inf(1), segs: []Segment{{T0: 0}, {T0: 0}}, wantErr: true},
		{name: "nan value", infFrom: math.Inf(1), segs: []Segment{{V0: math.NaN()}}, wantErr: true},
		{name: "inf slope", infFrom: math.Inf(1), segs: []Segment{{Slope: math.Inf(1)}}, wantErr: true},
		{name: "negative infFrom", infFrom: -1, segs: []Segment{{}}, wantErr: true},
		{name: "ok single", infFrom: math.Inf(1), segs: []Segment{{Slope: 2}}},
		{name: "ok multi", infFrom: 10, segs: []Segment{{}, {T0: 3, V0: 1, Slope: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := FromSegments(tt.infFrom, tt.segs...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("FromSegments err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEvalConventions(t *testing.T) {
	c, err := FromSegments(5, Segment{V0: 1, Slope: 2}, Segment{T0: 2, V0: 6, Slope: 0})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		t, want float64
	}{
		{-1, 0},          // zero before the origin
		{0, 1},           // value at the origin
		{1, 3},           // inside first segment
		{2, 6},           // right-continuous at the jump (5 from the left)
		{3, 6},           // flat second segment
		{5, math.Inf(1)}, // +∞ region inclusive
		{7, math.Inf(1)},
	}
	for _, tt := range tests {
		almost(t, c.Eval(tt.t), tt.want, 1e-12, "Eval")
	}
	almost(t, c.EvalLeft(2), 5, 1e-12, "EvalLeft at jump")
	almost(t, c.EvalLeft(5), 6, 1e-12, "EvalLeft at +inf boundary")
	almost(t, c.EvalLeft(0), 1, 1e-12, "EvalLeft at 0")
}

func TestConstructors(t *testing.T) {
	almost(t, Zero().Eval(42), 0, 0, "Zero")
	almost(t, ConstantRate(3).Eval(2), 6, 1e-12, "ConstantRate")

	lb := Affine(2, 5)
	almost(t, lb.Eval(0), 5, 1e-12, "Affine at 0")
	almost(t, lb.Eval(10), 25, 1e-12, "Affine at 10")

	rl := RateLatency(4, 3)
	almost(t, rl.Eval(2), 0, 0, "RateLatency before latency")
	almost(t, rl.Eval(3), 0, 0, "RateLatency at latency")
	almost(t, rl.Eval(5), 8, 1e-12, "RateLatency after latency")

	d := Delay(2.5)
	almost(t, d.Eval(2), 0, 0, "Delay before")
	almost(t, d.Eval(3), math.Inf(1), 0, "Delay after")
	if d.IsFinite() {
		t.Fatal("Delay curve should not be finite everywhere")
	}

	st := Step(2, 7)
	almost(t, st.Eval(1.9), 0, 0, "Step before")
	almost(t, st.Eval(2), 7, 0, "Step at")
}

func TestFromPointsJumps(t *testing.T) {
	c, err := FromPoints(1, [2]float64{0, 0}, [2]float64{2, 4}, [2]float64{2, 10}, [2]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, c.Eval(1), 2, 1e-12, "ramp")
	almost(t, c.Eval(2), 10, 1e-12, "jump right-continuous")
	almost(t, c.EvalLeft(2), 4, 1e-12, "jump left limit")
	almost(t, c.Eval(4), 10, 1e-12, "plateau")
	almost(t, c.Eval(7), 12, 1e-12, "tail")
}

func TestShapePredicates(t *testing.T) {
	if !Affine(2, 5).NonDecreasing() || !RateLatency(4, 3).NonDecreasing() {
		t.Error("standard curves should be non-decreasing")
	}
	dec, err := FromSegments(math.Inf(1), Segment{V0: 5, Slope: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.NonDecreasing() {
		t.Error("negative slope curve must not report non-decreasing")
	}
}

func TestTrimMergesCollinear(t *testing.T) {
	c, err := FromSegments(math.Inf(1),
		Segment{Slope: 2},
		Segment{T0: 1, V0: 2, Slope: 2}, // collinear continuation
		Segment{T0: 2, V0: 4, Slope: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.segs); got != 2 {
		t.Fatalf("expected collinear segments merged to 2, got %d: %v", got, c)
	}
}

func TestAlmostEqual(t *testing.T) {
	a := Affine(2, 5)
	b := Affine(2, 5)
	if !AlmostEqual(a, b, 1e-9, 100) {
		t.Error("identical curves should compare equal")
	}
	c := Affine(2, 5.1)
	if AlmostEqual(a, c, 1e-3, 100) {
		t.Error("different bursts should not compare equal")
	}
	if AlmostEqual(a, Delay(3), 1e-9, 100) {
		t.Error("finite and infinite curves should differ")
	}
}

func TestAccessorsAndString(t *testing.T) {
	d := Delay(3)
	s := Affine(2, 5).String()
	if !strings.Contains(s, "5") || !strings.Contains(s, "2") {
		t.Fatalf("String() = %q, want burst and rate visible", s)
	}
	if ds := d.String(); !strings.Contains(ds, "inf") {
		t.Fatalf("String() of δ_d should mention the +inf region: %q", ds)
	}
}

func TestStepEdgeCases(t *testing.T) {
	// Non-positive step time degenerates to a constant.
	s := Step(0, 7)
	almost(t, s.Eval(0), 7, 0, "step at origin")
	s = Step(-2, 7)
	almost(t, s.Eval(0), 7, 0, "negative step time clamps to origin")
}

func TestFromPointsErrors(t *testing.T) {
	if _, err := FromPoints(1); err == nil {
		t.Error("no points must be rejected")
	}
	if _, err := FromPoints(1, [2]float64{1, 0}); err == nil {
		t.Error("first point off origin must be rejected")
	}
	if _, err := FromPoints(1, [2]float64{0, 0}, [2]float64{2, 1}, [2]float64{1, 2}); err == nil {
		t.Error("decreasing times must be rejected")
	}
	if _, err := FromPoints(math.Inf(1), [2]float64{0, 0}); err == nil {
		t.Error("infinite tail must be rejected")
	}
	if _, err := FromPoints(1, [2]float64{0, math.NaN()}); err == nil {
		t.Error("NaN value must be rejected")
	}
}
