package experiments

import (
	"math"
	"testing"
)

func TestGrowthExponentExactFits(t *testing.T) {
	hs := []int{1, 2, 4, 8, 16}
	linear := make([]float64, len(hs))
	cubic := make([]float64, len(hs))
	for i, h := range hs {
		linear[i] = 3 * float64(h)
		cubic[i] = 0.5 * math.Pow(float64(h), 3)
	}
	b, err := GrowthExponent(hs, linear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-1) > 1e-9 {
		t.Fatalf("linear data: exponent %g, want 1", b)
	}
	b, err = GrowthExponent(hs, cubic)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-3) > 1e-9 {
		t.Fatalf("cubic data: exponent %g, want 3", b)
	}
}

func TestGrowthExponentValidation(t *testing.T) {
	if _, err := GrowthExponent([]int{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if _, err := GrowthExponent([]int{1, 2}, []float64{math.NaN(), 1}); err == nil {
		t.Error("fewer than two valid points must be rejected")
	}
	if _, err := GrowthExponent([]int{3, 3}, []float64{1, 2}); err == nil {
		t.Error("degenerate x values must be rejected")
	}
}

func TestScalingReportReproducesPaperAsymptotics(t *testing.T) {
	s := PaperSetup()
	rep, err := s.Scaling([]int{2, 4, 8, 16}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Network-service-curve bounds: essentially linear, Θ(H log H).
	if rep.NetworkExp < 0.9 || rep.NetworkExp > 1.4 {
		t.Errorf("network growth exponent %g, want ≈1 (Θ(H log H))", rep.NetworkExp)
	}
	// Additive bounds: strongly superlinear, heading toward H³.
	if rep.AdditiveExp < 2.0 {
		t.Errorf("additive growth exponent %g, want clearly superlinear (→3)", rep.AdditiveExp)
	}
	if rep.AdditiveExp <= rep.NetworkExp+0.5 {
		t.Errorf("additive exponent %g should dominate network exponent %g",
			rep.AdditiveExp, rep.NetworkExp)
	}
}

func TestEDFGainPersistsOnLongPaths(t *testing.T) {
	s := PaperSetup()
	rep, err := s.EDFGain([]int{2, 8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO ratio approaches 1; EDF ratio stays well below 1 — the paper's
	// concluding finding, as a regression test.
	if rep.FIFORatio[1] < 0.95 {
		t.Errorf("FIFO/BMUX at H=8 is %g, expected ≈1", rep.FIFORatio[1])
	}
	if rep.EDFRatio[1] > 0.7 {
		t.Errorf("EDF/BMUX at H=8 is %g, expected clearly below 1", rep.EDFRatio[1])
	}
}

// TestFIFOMeetsBMUXPastH30 asks the paper's title question past the
// H = 30 of its figures: at U = 50% (N0 = Nc = 166.67 MMOO flows) and
// ε = 1e-9, FIFO's bound stays within 1% of blind multiplexing's from
// H = 30 to 480, and both grow as Θ(H log H): the per-hop delay D/H
// rises with every doubling of H, the fitted growth exponent lies just
// above 1, and D/H = a + b·ln H fits within 1%.
func TestFIFOMeetsBMUXPastH30(t *testing.T) {
	s := PaperSetup()
	const n = 166.67
	hs := []int{30, 60, 120, 240, 480}
	bounds := map[Scheduler][]float64{}
	for _, sched := range []Scheduler{FIFO, BMUX} {
		for _, h := range hs {
			d, err := s.Bound(sched, h, n, n)
			if err != nil {
				t.Fatalf("%v at H=%d: %v", sched, h, err)
			}
			bounds[sched] = append(bounds[sched], d)
		}
	}
	for i, h := range hs {
		if r := bounds[FIFO][i] / bounds[BMUX][i]; r < 0.99 {
			t.Errorf("H=%d: FIFO/BMUX = %.4f, want >= 0.99", h, r)
		}
	}
	for sched, ds := range bounds {
		perHop := make([]float64, len(hs))
		for i, h := range hs {
			perHop[i] = ds[i] / float64(h)
			if i > 0 && !(perHop[i] > perHop[i-1]) {
				t.Errorf("%v: D/H %.3f at H=%d does not exceed %.3f at H=%d", sched, perHop[i], h, perHop[i-1], hs[i-1])
			}
		}
		b, err := GrowthExponent(hs, ds)
		if err != nil {
			t.Fatal(err)
		}
		if !(b > 1 && b < 1.15) {
			t.Errorf("%v: growth exponent %.4f, want in (1, 1.15)", sched, b)
		}
		// Least squares of D/H on ln H.
		var sx, sy, sxx, sxy float64
		for i, h := range hs {
			x := math.Log(float64(h))
			sx += x
			sy += perHop[i]
			sxx += x * x
			sxy += x * perHop[i]
		}
		m := float64(len(hs))
		slope := (m*sxy - sx*sy) / (m*sxx - sx*sx)
		icept := (sy - slope*sx) / m
		for i, h := range hs {
			fit := icept + slope*math.Log(float64(h))
			if r := math.Abs(perHop[i]-fit) / perHop[i]; r >= 0.01 {
				t.Errorf("%v: D/H = %.3f at H=%d is %.2f%% off the fit %.3f + %.3f·ln H", sched, perHop[i], h, 100*r, icept, slope)
			}
		}
		t.Logf("%v: D/H = %.2f, exponent %.3f, D/H ≈ %.2f + %.3f·ln H", sched, perHop, b, icept, slope)
	}
}

func TestAblateRecipeNeverBeatsExact(t *testing.T) {
	s := PaperSetup()
	rows, err := s.AblateRecipe([]int{2, 5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Penalty()) {
			t.Errorf("%s: NaN penalty", r.Label)
			continue
		}
		if r.Penalty() < 1-1e-6 {
			t.Errorf("%s: recipe %g beats the exact solver %g", r.Label, r.Ablated, r.Full)
		}
		if r.Penalty() > 5 {
			t.Errorf("%s: recipe penalty ×%.2f implausibly large", r.Label, r.Penalty())
		}
	}
}

func TestAblateGammaFixedIsWorse(t *testing.T) {
	s := PaperSetup()
	rows, err := s.AblateGammaAlpha(5, 0.5, []float64{0.9}) // deliberately bad fixed γ
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want the fixed-γ row and the fixed-α row", len(rows))
	}
	if row := rows[0]; row.Penalty() < 1-1e-6 {
		t.Errorf("fixed gamma %g should not beat the optimized bound %g", row.Ablated, row.Full)
	}
	if _, err := s.AblateGammaAlpha(5, 0.5, []float64{0.5, 0}); err == nil {
		t.Error("fraction 0 must be rejected")
	}
}

func TestAblateAlphaHeuristicIsWorse(t *testing.T) {
	s := PaperSetup()
	rows, err := s.AblateGammaAlpha(5, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want the fixed-α row alone", len(rows))
	}
	if row := rows[0]; !math.IsNaN(row.Ablated) && row.Penalty() < 1-1e-6 {
		t.Errorf("heuristic alpha %g should not beat the swept bound %g", row.Ablated, row.Full)
	}
}
