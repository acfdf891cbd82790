package envelope

import (
	"math"
	"testing"
)

// TestEBMemoMatchesDirect checks that the cached pricer returns exactly
// the values of the uncached methods, including across cache hits,
// misses, and revisited decays.
func TestEBMemoMatchesDirect(t *testing.T) {
	m := PaperSource()
	memo, err := NewEBMemo(m)
	if err != nil {
		t.Fatal(err)
	}
	// Repeats exercise the one-entry cache; the jumps evict it.
	for _, s := range []float64{0.01, 0.01, 0.5, 0.5, 0.01, 3, 0.5} {
		want, err := m.EffectiveBandwidth(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.EffectiveBandwidth(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("EffectiveBandwidth(%g) = %v via memo, want %v", s, got, want)
		}
		for _, n := range []float64{0, 30, 60.5} {
			wantAgg, err := m.EBBAggregate(n, s)
			if err != nil {
				t.Fatal(err)
			}
			gotAgg, err := memo.EBBAggregate(n, s)
			if err != nil {
				t.Fatal(err)
			}
			if gotAgg != wantAgg {
				t.Errorf("EBBAggregate(%g, %g) = %+v via memo, want %+v", n, s, gotAgg, wantAgg)
			}
		}
	}
}

func TestEBMemoValidation(t *testing.T) {
	if _, err := NewEBMemo(MMOO{Peak: -1, P11: 0.9, P22: 0.9}); err == nil {
		t.Error("invalid source must be rejected at construction")
	}
	memo, err := NewEBMemo(PaperSource())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memo.EBBAggregate(-1, 0.1); err == nil {
		t.Error("negative aggregate size must be rejected")
	}
	if _, err := memo.EffectiveBandwidth(0); err == nil {
		t.Error("s = 0 must be rejected")
	}
	if _, err := memo.EffectiveBandwidth(math.NaN()); err == nil {
		t.Error("NaN s must be rejected")
	}
}
