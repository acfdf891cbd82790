package measure

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// record drives a recorder with per-slot (arrival, departure) increments.
func recordRun(t *testing.T, incrA, incrD []float64) *DelayRecorder {
	t.Helper()
	r := NewDelayRecorder(len(incrA))
	cumA, cumD := 0.0, 0.0
	for i := range incrA {
		cumA += incrA[i]
		cumD += incrD[i]
		if err := r.Record(cumA, cumD); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	return r
}

// distEqual compares the full content of two distributions bit-exactly.
func distEqual(a, b Distribution) bool {
	return reflect.DeepEqual(a.delays, b.delays) &&
		reflect.DeepEqual(a.weights, b.weights) &&
		a.totalBits == b.totalBits &&
		a.censored == b.censored
}

func TestMergeEmptyNonEmpty(t *testing.T) {
	full := recordRun(t, []float64{4, 0, 2, 0}, []float64{0, 4, 0, 2}).Distribution()
	var empty Distribution

	for _, m := range []Distribution{empty.Merge(full), full.Merge(empty)} {
		n, bits := m.Samples()
		wantN, wantBits := full.canonical().Samples()
		if n != wantN || math.Abs(bits-wantBits) > 1e-12 {
			t.Fatalf("empty-merge lost samples: got (%d, %g), want (%d, %g)", n, bits, wantN, wantBits)
		}
		q, err := m.Quantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := full.Quantile(0.99)
		if q != want {
			t.Fatalf("empty-merge quantile %d, want %d", q, want)
		}
	}
	if m := empty.Merge(empty); m.totalBits != 0 || len(m.delays) != 0 {
		t.Fatalf("empty⊕empty must stay empty, got %+v", m)
	}
}

func TestMergeDisjointSupports(t *testing.T) {
	// a: all bits delayed exactly 1 slot; b: all bits delayed exactly 3.
	a := recordRun(t, []float64{2, 2, 0, 0, 0}, []float64{0, 2, 2, 0, 0}).Distribution()
	b := recordRun(t, []float64{3, 0, 0, 3, 0, 0, 0}, []float64{0, 0, 0, 3, 0, 0, 3}).Distribution()
	m := a.Merge(b)

	if got := m.delays; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("merged support %v, want [1 3]", got)
	}
	if q, _ := m.Quantile(0.3); q != 1 {
		t.Fatalf("30%% quantile %d, want 1 (4 of 10 bits at delay 1)", q)
	}
	if q, _ := m.Quantile(0.9); q != 3 {
		t.Fatalf("90%% quantile %d, want 3", q)
	}
}

func TestMergeWeightConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(slots int) Distribution {
		incrA := make([]float64, slots)
		incrD := make([]float64, slots)
		pending := 0.0
		for i := range incrA {
			incrA[i] = math.Floor(rng.Float64() * 5)
			pending += incrA[i]
			d := math.Min(pending, math.Floor(rng.Float64()*4))
			incrD[i] = d
			pending -= d
		}
		return recordRun(t, incrA, incrD).Distribution()
	}
	a, b := mk(300), mk(500)
	m := a.Merge(b)
	_, bitsA := a.Samples()
	_, bitsB := b.Samples()
	_, bitsM := m.Samples()
	if math.Abs(bitsM-(bitsA+bitsB)) > 1e-9*(1+bitsA+bitsB) {
		t.Fatalf("measured volume not conserved: %g + %g != %g", bitsA, bitsB, bitsM)
	}
	if got, want := m.CensoredBits(), a.CensoredBits()+b.CensoredBits(); got != want {
		t.Fatalf("censored volume not conserved: %g, want %g", got, want)
	}
}

// Merge must be commutative to the bit: per-delay weights meet in one
// commutative addition and totals re-accumulate in delay order.
func TestMergeCommutativeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(seed int64, slots int) Distribution {
		r := rand.New(rand.NewSource(seed))
		incrA := make([]float64, slots)
		incrD := make([]float64, slots)
		pending := 0.0
		for i := range incrA {
			incrA[i] = r.Float64() * 3
			pending += incrA[i]
			d := math.Min(pending, r.Float64()*3)
			incrD[i] = d
			pending -= d
		}
		return recordRun(t, incrA, incrD).Distribution()
	}
	for trial := 0; trial < 20; trial++ {
		a := mk(rng.Int63(), 100+trial)
		b := mk(rng.Int63(), 200+trial)
		if !distEqual(a.Merge(b), b.Merge(a)) {
			t.Fatalf("trial %d: Merge(a,b) != Merge(b,a) bit-for-bit", trial)
		}
	}
}

// Property: the quantiles of R merged replications match the quantiles
// of one distribution holding the concatenated sample set.
func TestMergedQuantilesMatchConcatenatedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var parts []Summary
	var concat Distribution
	for rep := 0; rep < 4; rep++ {
		var d Distribution
		for s := 0; s < 200; s++ {
			delay := rng.Intn(12)
			w := 1 + math.Floor(rng.Float64()*4)
			d.delays = append(d.delays, delay)
			d.weights = append(d.weights, w)
			d.totalBits += w
			concat.delays = append(concat.delays, delay)
			concat.weights = append(concat.weights, w)
			concat.totalBits += w
		}
		parts = append(parts, &d)
	}
	pooled, err := MergeSummaries(parts)
	if err != nil {
		t.Fatal(err)
	}
	merged := pooled.(*Distribution)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		qm, err1 := merged.Quantile(p)
		qc, err2 := concat.Quantile(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("quantile(%g): %v / %v", p, err1, err2)
		}
		if qm != qc {
			t.Fatalf("quantile(%g): merged %d != concatenated %d", p, qm, qc)
		}
	}
	fm := merged.ViolationFraction(5)
	fc := concat.ViolationFraction(5)
	if math.Abs(fm-fc) > 1e-12 {
		t.Fatalf("violation fraction: merged %g != concatenated %g", fm, fc)
	}
}

func TestMergedDistributionFromRecorders(t *testing.T) {
	r1 := recordRun(t, []float64{2, 0}, []float64{0, 2})
	r2 := recordRun(t, []float64{3, 0, 0}, []float64{0, 0, 3})
	d1, d2 := r1.Distribution(), r2.Distribution()
	pooled, err := MergeSummaries([]Summary{&d1, &d2})
	if err != nil {
		t.Fatal(err)
	}
	m := pooled.(*Distribution)
	if got := m.delays; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("merged support %v, want [1 2]", got)
	}
	if _, bits := m.Samples(); bits != 5 {
		t.Fatalf("merged volume %g, want 5", bits)
	}
}

func TestQuantileCI(t *testing.T) {
	mk := func(delay int) Summary {
		return &Distribution{delays: []int{delay}, weights: []float64{1}, totalBits: 1}
	}
	// Identical replications: zero half-width.
	mean, half, err := QuantileCI([]Summary{mk(4), mk(4), mk(4)}, 0.99)
	if err != nil || mean != 4 || half != 0 {
		t.Fatalf("identical reps: got (%g ± %g, %v), want (4 ± 0)", mean, half, err)
	}
	// Spread replications: mean of {2,4,6} with a positive half-width.
	mean, half, err = QuantileCI([]Summary{mk(2), mk(4), mk(6)}, 0.99)
	if err != nil || mean != 4 || half <= 0 {
		t.Fatalf("spread reps: got (%g ± %g, %v)", mean, half, err)
	}
	// t_{0.975,2} = 4.303, s = 2, R = 3.
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(half-want) > 1e-9 {
		t.Fatalf("half-width %g, want %g", half, want)
	}
	if _, _, err = QuantileCI([]Summary{mk(1)}, 0.99); err == nil {
		t.Fatal("one replication must not produce a CI")
	}
	if _, _, err = QuantileCI([]Summary{mk(1), &Distribution{}}, 0.99); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty replication must surface ErrNoSamples, got %v", err)
	}
}

func TestViolationFractionCI(t *testing.T) {
	mk := func(frac float64) Summary {
		return &Distribution{
			delays:    []int{0, 10},
			weights:   []float64{1 - frac, frac},
			totalBits: 1,
		}
	}
	mean, half, err := ViolationFractionCI([]Summary{mk(0.2), mk(0.4)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.3) > 1e-12 || half <= 0 {
		t.Fatalf("got %g ± %g, want mean 0.3 with positive half-width", mean, half)
	}
}

func TestStudentT975(t *testing.T) {
	cases := map[int]float64{1: 12.706, 2: 4.303, 30: 2.042, 35: 2.042, 50: 2.021, 200: 1.960}
	for df, want := range cases {
		if got := studentT975(df); got != want {
			t.Errorf("studentT975(%d) = %g, want %g", df, got, want)
		}
	}
	if !math.IsNaN(studentT975(0)) {
		t.Error("df=0 must be NaN")
	}
}

func TestCensoredFraction(t *testing.T) {
	d := Distribution{totalBits: 3, censored: 1, delays: []int{0}, weights: []float64{3}}
	if got := d.CensoredFraction(); got != 0.25 {
		t.Fatalf("censored fraction %g, want 0.25", got)
	}
	var empty Distribution
	if got := empty.CensoredFraction(); got != 0 {
		t.Fatalf("empty censored fraction %g, want 0", got)
	}
}

func TestNewDelayRecorderCapacity(t *testing.T) {
	r := NewDelayRecorder(1000)
	if cap(r.arr) != 1000 || cap(r.dep) != 1000 {
		t.Fatalf("capacity hint ignored: cap(arr)=%d cap(dep)=%d", cap(r.arr), cap(r.dep))
	}
	if err := r.Record(1, 0); err != nil {
		t.Fatal(err)
	}
	if NewDelayRecorder(-5).Slots() != 0 {
		t.Fatal("negative hint must clamp to the empty recorder")
	}
}
