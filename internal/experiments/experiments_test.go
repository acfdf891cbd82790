package experiments

import (
	"context"
	"errors"
	"math"
	"testing"

	"deltasched/internal/core"
)

// evalSeries prices enumerated sweep points the way the figure scenarios
// do — one EvalPoint per point, an infeasible point recorded as NaN — and
// groups the values by series label in point order.
func evalSeries(t *testing.T, s Setup, pts []SweepPoint) map[string][]float64 {
	t.Helper()
	ys, err := ParMapCtx(context.Background(), 0, pts, func(ctx context.Context, p SweepPoint) (float64, error) {
		d, err := s.EvalPoint(ctx, p)
		if errors.Is(err, core.ErrInfeasible) {
			return math.NaN(), nil
		}
		return d, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string][]float64{}
	for i, p := range pts {
		byLabel[p.Series] = append(byLabel[p.Series], ys[i])
	}
	return byLabel
}

func TestFlowCountMatchesPaperMapping(t *testing.T) {
	s := PaperSetup()
	// The paper: N0 = 100 flows ↔ U0 = 15% on a 100 Mbps link.
	if got := s.FlowCount(0.15); math.Abs(got-100) > 1e-9 {
		t.Fatalf("FlowCount(15%%) = %g, want 100", got)
	}
}

func TestSchedulerStrings(t *testing.T) {
	for sched, want := range map[Scheduler]string{
		BMUX:             "BMUX",
		FIFO:             "FIFO",
		EDFRatio10:       "EDF (d*c=10·d*0)",
		EDFThroughHalf:   "EDF (d*0=d*c/2)",
		EDFThroughDouble: "EDF (d*0=2·d*c)",
		BMUXAdditive:     "BMUX additive",
	} {
		if got := sched.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(sched), got, want)
		}
	}
}

func TestBoundOrderingAtModerateLoad(t *testing.T) {
	s := PaperSetup()
	nc := s.FlowCount(0.5) - 100
	const h = 3
	edf, err := s.Bound(EDFRatio10, h, 100, nc)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := s.Bound(FIFO, h, 100, nc)
	if err != nil {
		t.Fatal(err)
	}
	bmux, err := s.Bound(BMUX, h, 100, nc)
	if err != nil {
		t.Fatal(err)
	}
	if !(edf < fifo && fifo <= bmux) {
		t.Fatalf("ordering violated: EDF=%g FIFO=%g BMUX=%g", edf, fifo, bmux)
	}
	if edf < 1 || bmux > 1e4 {
		t.Fatalf("implausible magnitudes: EDF=%g ms, BMUX=%g ms", edf, bmux)
	}
}

func TestBoundValidation(t *testing.T) {
	s := PaperSetup()
	// Out-of-domain inputs are bad configurations, rejected before any
	// α sweep could read them as "no feasible alpha".
	for _, sched := range []Scheduler{FIFO, EDFRatio10, BMUXAdditive} {
		if _, err := s.Bound(sched, 0, 100, 100); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%v at H=0: want core.ErrBadConfig, got %v", sched, err)
		}
	}
	if _, _, err := s.PathBound(s.Source, 0, 100, 100, 0); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("PathBound at H=0: want core.ErrBadConfig, got %v", err)
	}
	if _, err := s.Bound(Scheduler(99), 2, 100, 100); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("unknown scheduler: want core.ErrBadConfig, got %v", err)
	}
	// Saturated link: no feasible bound.
	if _, err := s.Bound(FIFO, 2, 400, 400); err == nil {
		t.Error("overload must be rejected")
	}
}

func TestExample1ShapeAndHeadlineFinding(t *testing.T) {
	s := PaperSetup()
	pts, err := s.Example1Points([]int{2, 5}, []float64{0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := evalSeries(t, s, pts)
	if len(byLabel) != 6 { // 2 path lengths × 3 schedulers
		t.Fatalf("got %d series, want 6", len(byLabel))
	}
	for label, ys := range byLabel {
		for i, y := range ys {
			if !math.IsNaN(y) && y <= 0 {
				t.Errorf("%s point %d: non-positive bound %g", label, i, y)
			}
		}
		// Delay bounds increase with utilization.
		if len(ys) == 2 && !math.IsNaN(ys[0]) && !math.IsNaN(ys[1]) && ys[1] <= ys[0] {
			t.Errorf("%s: bound not increasing in U: %v", label, ys)
		}
	}
	// Headline: at U=50% (substantial cross load) FIFO is clearly below
	// BMUX at H=2 but within 5% of it at H=5 — the paper notes that the
	// gap closes when the cross utilization is small *or* H is large.
	f2, b2 := byLabel["FIFO H=2"], byLabel["BMUX H=2"]
	f5, b5 := byLabel["FIFO H=5"], byLabel["BMUX H=5"]
	if f2 == nil || b2 == nil || f5 == nil || b5 == nil {
		t.Fatal("missing expected series")
	}
	if f2[0] > 0.8*b2[0] {
		t.Errorf("at H=2, U=50%%: FIFO %g should be clearly below BMUX %g", f2[0], b2[0])
	}
	if f5[0] < 0.95*b5[0] {
		t.Errorf("at H=5, U=50%%: FIFO %g should be within 5%% of BMUX %g", f5[0], b5[0])
	}
}

func TestExample2MixSensitivity(t *testing.T) {
	s := PaperSetup()
	pts, err := s.Example2Points([]int{2}, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := evalSeries(t, s, pts)
	// BMUX gets worse as the share of cross traffic grows; EDF with
	// favourable deadlines is nearly insensitive (paper's Fig. 3 discussion).
	bm := byLabel["BMUX H=2"]
	if bm == nil || !(bm[1] > bm[0]) {
		t.Errorf("BMUX should grow with the cross share: %v", bm)
	}
	edf := byLabel["EDF (d*0=d*c/2) H=2"]
	if edf == nil {
		t.Fatal("missing EDF series")
	}
	relChange := math.Abs(edf[1]-edf[0]) / edf[0]
	bmChange := (bm[1] - bm[0]) / bm[0]
	if relChange > bmChange {
		t.Errorf("favourable EDF should be less mix-sensitive than BMUX: EDF %.2f vs BMUX %.2f",
			relChange, bmChange)
	}
	// The two EDF variants must bracket FIFO.
	fifo := byLabel["FIFO H=2"]
	hard := byLabel["EDF (d*0=2·d*c) H=2"]
	if !(edf[0] <= fifo[0]+1e-9 && fifo[0] <= hard[0]+1e-9) {
		t.Errorf("EDF variants should bracket FIFO: %g <= %g <= %g", edf[0], fifo[0], hard[0])
	}
}

func TestExample3ScalingShapes(t *testing.T) {
	s := PaperSetup()
	pts, err := s.Example3Points([]int{2, 4, 8}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := evalSeries(t, s, pts)
	net := byLabel["BMUX U=50%"]
	add := byLabel["BMUX additive U=50%"]
	if net == nil || add == nil {
		t.Fatalf("missing series; have %v", keys(byLabel))
	}
	// Network-service-curve bounds grow essentially linearly: the per-hop
	// increment from H=2→4 and 4→8 is similar (within 2×).
	inc1 := (net[1] - net[0]) / 2
	inc2 := (net[2] - net[1]) / 4
	if inc2 > 2.2*inc1 {
		t.Errorf("network bound growing superlinearly: increments %g then %g", inc1, inc2)
	}
	// Additive bounds blow up: growth H=4→8 must exceed the network one.
	if add[2]/add[1] <= net[2]/net[1] {
		t.Errorf("additive growth %g should exceed network growth %g", add[2]/add[1], net[2]/net[1])
	}
	if add[2] < 2*net[2] {
		t.Errorf("additive bound %g at H=8 should dwarf the network bound %g", add[2], net[2])
	}
}

func keys(m map[string][]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
