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
