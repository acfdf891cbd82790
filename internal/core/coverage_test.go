package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/minplus"
)

func TestPolicyNames(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{FIFO{}, "FIFO"},
		{StaticPriority{}, "SP"},
		{BMUX{}, "BMUX"},
		{EDF{}, "EDF"},
		{fixedDelta{delta: 3}, "Delta(3)"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestOptimizeAlphaFuncDirect(t *testing.T) {
	// value returns an objective's value as its own payload.
	value := func(obj func(alpha float64) (float64, error)) func(context.Context, float64) (float64, float64, error) {
		return func(_ context.Context, alpha float64) (float64, float64, error) {
			v, err := obj(alpha)
			return v, v, err
		}
	}
	bg := context.Background()

	// Convex objective with a known minimum at α = 2.
	calls := 0
	a, v, err := OptimizeAlphaFunc(bg, value(func(alpha float64) (float64, error) {
		calls++
		return (alpha - 2) * (alpha - 2), nil
	}), 0.1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2) > 0.05 || v > 0.01 {
		t.Fatalf("optimum at %g (value %g), want ≈2", a, v)
	}
	if v != (a-2)*(a-2) {
		t.Fatalf("payload %g is not the objective at the returned α %g", v, a)
	}
	if calls == 0 {
		t.Fatal("objective never evaluated")
	}

	// Errors mark infeasible points and are skipped.
	a, _, err = OptimizeAlphaFunc(bg, value(func(alpha float64) (float64, error) {
		if alpha < 1 {
			return 0, errors.New("infeasible")
		}
		return alpha, nil
	}), 0.1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a < 1 {
		t.Fatalf("optimizer picked infeasible alpha %g", a)
	}

	// Entirely infeasible objective errors out.
	if _, _, err := OptimizeAlphaFunc(bg, value(func(float64) (float64, error) {
		return 0, errors.New("never")
	}), 0.1, 20); !errors.Is(err, ErrUnstable) {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}

	// Bad bracket.
	if _, _, err := OptimizeAlphaFunc(bg, value(func(a float64) (float64, error) { return a, nil }), 5, 1); err == nil {
		t.Fatal("inverted bracket must be rejected")
	}
}

func TestOptimizeAlphaDirect(t *testing.T) {
	m := envelope.PaperSource()
	build := func(alpha float64) (PathConfig, error) {
		through, err := m.EBBAggregate(50, alpha)
		if err != nil {
			return PathConfig{}, err
		}
		cross, err := m.EBBAggregate(100, alpha)
		if err != nil {
			return PathConfig{}, err
		}
		return PathConfig{H: 2, C: 50, Through: through, Cross: cross, Delta0c: 0}, nil
	}
	res, err := OptimizeAlpha(build, 1e-6, 1e-3, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The swept bound must beat two arbitrary fixed-α bounds.
	for _, a := range []float64{0.01, 1} {
		cfg, err := build(a)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := DelayBound(cfg, 1e-6); err == nil && r.D < res.D-1e-9 {
			t.Fatalf("fixed alpha %g beats the sweep: %g < %g", a, r.D, res.D)
		}
	}
}

func TestValidateEdgeCases(t *testing.T) {
	good := paperPathConfig(2, 0)
	cases := []func(*PathConfig){
		func(c *PathConfig) { c.C = math.NaN() },
		func(c *PathConfig) { c.C = math.Inf(1) },
		func(c *PathConfig) { c.Through.Rho = math.Inf(1) },
		func(c *PathConfig) { c.Through.Alpha = 0 },
		func(c *PathConfig) { c.Cross.M = 0.2 },
		func(c *PathConfig) { c.Delta0c = math.NaN() },
	}
	for i, mut := range cases {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}

	det := detCfg(2, 0)
	det.Through = mustDecreasing(t)
	if err := det.Validate(); err == nil {
		t.Error("decreasing deterministic envelope accepted")
	}
	det = detCfg(0, 0)
	if err := det.Validate(); err == nil {
		t.Error("H=0 deterministic config accepted")
	}

	hp := HeteroPath{Through: envelope.EBB{M: 1, Rho: 1, Alpha: 1}}
	if err := hp.Validate(); err == nil {
		t.Error("empty hetero path accepted")
	}
	hp.Nodes = []NodeSpec{{C: -1, Cross: envelope.EBB{M: 1, Rho: 1, Alpha: 1}}}
	if err := hp.Validate(); err == nil {
		t.Error("negative node capacity accepted")
	}
	hp.Nodes = []NodeSpec{{C: 10, Cross: envelope.EBB{M: 1, Rho: 1, Alpha: 1}, Delta: math.NaN()}}
	if err := hp.Validate(); err == nil {
		t.Error("NaN node delta accepted")
	}
}

func mustDecreasing(t *testing.T) minplus.Curve {
	t.Helper()
	c, err := minplus.FromSegments(math.Inf(1), minplus.Segment{V0: 5, Slope: -1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOptimizeAlphaFuncLeavesRange pins the α-range contract that
// OptimizeAlphaFunc keeps: when the grid's best point is an end of
// [alphaLo, alphaHi], the golden section refines one grid interval
// beyond it, so a monotone objective's α lands outside the range, by
// at most one grid interval.
func TestOptimizeAlphaFuncLeavesRange(t *testing.T) {
	const lo, hi = 1e-3, 50.0
	step := math.Pow(hi/lo, 1.0/40)
	for _, tc := range []struct {
		name string
		obj  func(alpha float64) float64
		in   func(a float64) bool
	}{
		{"falling", func(a float64) float64 { return 1 / a }, func(a float64) bool { return a > hi && a <= hi*step }},
		{"rising", func(a float64) float64 { return a }, func(a float64) bool { return a < lo && a >= lo/step }},
	} {
		a, v, err := OptimizeAlphaFunc(context.Background(), func(_ context.Context, alpha float64) (float64, float64, error) {
			return tc.obj(alpha), tc.obj(alpha), nil
		}, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.in(a) || v != tc.obj(a) {
			t.Errorf("%s objective: α = %g (value %g), want outside [%g, %g] by at most a factor %g",
				tc.name, a, v, lo, hi, step)
		}
	}
}
