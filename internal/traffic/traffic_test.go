package traffic

import (
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/minplus"
)

func TestMMOOMeanRate(t *testing.T) {
	m := envelope.PaperSource()
	rng := rand.New(rand.NewSource(1))
	src, err := NewMMOO(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 400000
	total := 0.0
	for i := 0; i < slots; i++ {
		total += src.Next()
	}
	got := total / slots
	want := m.MeanRate()
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("empirical mean rate %g, want ≈%g", got, want)
	}
}

func TestMMOOEmitsPeakOrNothing(t *testing.T) {
	m := envelope.PaperSource()
	src, err := NewMMOO(m, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		v := src.Next()
		if v != 0 && v != m.Peak {
			t.Fatalf("slot %d: emission %g is neither 0 nor peak %g", i, v, m.Peak)
		}
	}
}

func TestMMOOBurstiness(t *testing.T) {
	// With p22=0.9 the ON state persists ~10 slots: the lag-1
	// autocorrelation of emissions must be clearly positive.
	m := envelope.PaperSource()
	src, err := NewMMOO(m, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	const slots = 200000
	xs := make([]float64, slots)
	mean := 0.0
	for i := range xs {
		xs[i] = src.Next()
		mean += xs[i]
	}
	mean /= slots
	var num, den float64
	for i := 0; i+1 < slots; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
		den += (xs[i] - mean) * (xs[i] - mean)
	}
	if corr := num / den; corr < 0.5 {
		t.Fatalf("lag-1 autocorrelation %g, expected strongly positive for a bursty source", corr)
	}
}

func TestMMOOValidation(t *testing.T) {
	if _, err := NewMMOO(envelope.MMOO{Peak: -1, P11: 0.9, P22: 0.9}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid chain must be rejected")
	}
	if _, err := NewMMOO(envelope.PaperSource(), nil); err == nil {
		t.Error("nil RNG must be rejected")
	}
}

func TestCBR(t *testing.T) {
	src := CBR{Rate: 2.5}
	for i := 0; i < 5; i++ {
		if got := src.Next(); got != 2.5 {
			t.Fatalf("CBR emitted %g, want 2.5", got)
		}
	}
}

func TestAggregate(t *testing.T) {
	agg := NewAggregate(CBR{Rate: 1}, CBR{Rate: 2}, CBR{Rate: 3})
	if got := agg.Next(); got != 6 {
		t.Fatalf("aggregate emitted %g, want 6", got)
	}
	if agg.Size() != 3 {
		t.Fatalf("aggregate size %d, want 3", agg.Size())
	}
}

func TestMMOOAggregateLawOfLargeNumbers(t *testing.T) {
	m := envelope.PaperSource()
	agg, err := NewMMOOAggregate(m, 50, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	const slots = 50000
	total := 0.0
	for i := 0; i < slots; i++ {
		total += agg.Next()
	}
	got := total / slots
	want := 50 * m.MeanRate()
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("aggregate mean rate %g, want ≈%g", got, want)
	}
}

func TestGreedyTracesEnvelope(t *testing.T) {
	env := minplus.Affine(2, 10) // burst 10, rate 2
	g, err := NewGreedy(env)
	if err != nil {
		t.Fatal(err)
	}
	cum := 0.0
	for slot := 0; slot < 20; slot++ {
		cum += g.Next()
		want := env.Eval(float64(slot + 1))
		if math.Abs(cum-want) > 1e-9 {
			t.Fatalf("slot %d: cumulative %g, want E(%d)=%g", slot, cum, slot+1, want)
		}
	}
}

func TestGreedyRejectsBadEnvelopes(t *testing.T) {
	if _, err := NewGreedy(minplus.Delay(3)); err == nil {
		t.Error("infinite envelope must be rejected")
	}
	dec, err := minplus.FromSegments(math.Inf(1), minplus.Segment{V0: 5, Slope: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGreedy(dec); err == nil {
		t.Error("decreasing envelope must be rejected")
	}
}

func TestTrace(t *testing.T) {
	tr := &Trace{Data: []float64{1, 0, 2.5, -3, 4}}
	want := []float64{1, 0, 2.5, 0, 4, 0, 0}
	for i, w := range want {
		if got := tr.Next(); got != w {
			t.Fatalf("slot %d: got %g, want %g", i, got, w)
		}
	}
}

// TestMMOOAggregateSatisfiesEBB validates the analytical traffic model
// against the generator: the empirical violation frequency of the EBB
// increment bound P(A(s,t) > ρ(t−s)+σ) must stay below M·e^{−ασ} for a
// range of window lengths and thresholds. This ties the envelope package's
// math to the simulator's workload.
func TestMMOOAggregateSatisfiesEBB(t *testing.T) {
	m := envelope.PaperSource()
	const n = 20
	agg, err := NewMMOOAggregate(m, n, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	const slots = 300000
	xs := make([]float64, slots)
	for i := range xs {
		xs[i] = agg.Next()
	}
	// Prefix sums for O(1) window queries.
	cum := make([]float64, slots+1)
	for i, x := range xs {
		cum[i+1] = cum[i] + x
	}

	for _, alpha := range []float64{0.1, 0.5} {
		ebb, err := m.EBBAggregate(n, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{5, 20, 100} {
			for _, sigma := range []float64{5, 15} {
				bound := ebb.Bound().At(sigma)
				viol := 0
				total := 0
				for s := 0; s+window <= slots; s += window / 2 {
					total++
					if cum[s+window]-cum[s] > ebb.Rho*float64(window)+sigma {
						viol++
					}
				}
				frac := float64(viol) / float64(total)
				// Allow estimation noise: the empirical frequency may not
				// exceed the analytical bound by more than a small margin.
				slack := 3 * math.Sqrt(bound/float64(total))
				if frac > bound+slack+1e-4 {
					t.Errorf("alpha=%g window=%d sigma=%g: empirical %g exceeds EBB bound %g",
						alpha, window, sigma, frac, bound)
				}
			}
		}
	}
}
