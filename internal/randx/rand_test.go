package randx

import (
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
)

// TestRandMatchesMathRand pins the load-bearing property of Rand: its
// Float64/Int63/Uint64 streams are bit-identical to
// rand.New(rand.NewSource(seed)) from the very first draw. The simulator's
// golden fixtures were recorded through math/rand, so any divergence here
// would silently change every simulated sample path.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, 2, 9, 42, -1, -7, 123456789, 1 << 40, -9876543210}
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		fast := NewRand(seed)
		// The first fibLen draws exercise every reconstructed register
		// slot; the rest exercise the steady-state recurrence.
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				if w, g := ref.Float64(), fast.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %x != %x", seed, i, w, g)
				}
			case 1:
				if w, g := ref.Int63(), fast.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, w, g)
				}
			default:
				if w, g := ref.Uint64(), fast.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, w, g)
				}
			}
		}
	}
}

// TestRandFloat64Range checks the documented half-open interval. The f==1
// redraw branch cannot be forced without a contrived register state, but
// the bound must hold across a long stream regardless.
func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 100_000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("draw %d: Float64 %v outside [0,1)", i, f)
		}
	}
}

// TestRandFloat64SlowRedraws pins the redraw loop directly: seed a register
// state whose next output rounds to 1.0 and require the slow path to skip
// it exactly like math/rand's retry loop would.
func TestRandFloat64SlowRedraws(t *testing.T) {
	r := NewRand(1)
	// Force the next Uint64 to produce Int63 == 1<<63 - 1, which rounds
	// to 1.0 under the /2⁶³ conversion.
	ForceDraw(r, 0, 1<<63-1)
	want := rand.New(rand.NewSource(1))
	// Advance the reference by one draw: the forced value replaces what
	// the un-tampered stream would have produced at this position, so
	// Rand must land back on the reference stream after skipping it.
	want.Float64()
	if g, w := r.Float64(), want.Float64(); g != w {
		t.Fatalf("redraw: got %x want %x", g, w)
	}
	if g, w := r.Float64(), want.Float64(); g != w {
		t.Fatalf("post-redraw: got %x want %x", g, w)
	}
}

// TestRandFillMatchesUint64 pins Fill to the one-step recurrence: every
// length around the register's wrap points (the tap distance 273, the
// feed distance 334 and the length 607), started at phases shifted by
// interleaved Uint64 and Float64 calls, must return the values successive
// Uint64 calls return and leave the stream where they leave it.
func TestRandFillMatchesUint64(t *testing.T) {
	lengths := []int{0, 1, 272, 273, 333, 334, 606, 607, 608, 10_000}
	buf := make([]uint64, 10_000)
	for _, seed := range []int64{1, 9, 42, -3} {
		fill, ref := NewRand(seed), NewRand(seed)
		for round := 0; round < 3; round++ {
			for li, n := range lengths {
				// Shift the phase by a few single draws of both kinds.
				for j := 0; j < li+round; j++ {
					if j%2 == 0 {
						if g, w := fill.Uint64(), ref.Uint64(); g != w {
							t.Fatalf("seed %d: interleaved Uint64 %d != %d", seed, g, w)
						}
					} else if g, w := fill.Float64(), ref.Float64(); g != w {
						t.Fatalf("seed %d: interleaved Float64 %x != %x", seed, g, w)
					}
				}
				got := buf[:n]
				fill.Fill(got)
				for i, g := range got {
					if w := ref.Uint64(); g != w {
						t.Fatalf("seed %d round %d: Fill(%d)[%d] = %d, Uint64 gave %d", seed, round, n, i, g, w)
					}
				}
			}
		}
		if fill.tap != ref.tap || fill.feed != ref.feed || fill.vec != ref.vec {
			t.Fatalf("seed %d: Fill left a different register state than Uint64", seed)
		}
	}
	// Every starting phase of the register, each with a fill that crosses
	// both wrap points.
	fill, ref := NewRand(5), NewRand(5)
	for phase := 0; phase < fibLen; phase++ {
		fill.Uint64()
		ref.Uint64()
		got := buf[:fibLen+1]
		fill.Fill(got)
		for i, g := range got {
			if w := ref.Uint64(); g != w {
				t.Fatalf("phase %d: Fill[%d] = %d, Uint64 gave %d", phase, i, g, w)
			}
		}
	}
}

// TestFloat64Threshold checks the defining property of Float64Threshold:
// for every 63-bit draw x, Float64's value of x is below p exactly when x
// is below T(p), and at least p exactly when x is at least T(p). It probes
// the draws right around each threshold and random draws, for the MMOO
// probabilities the traffic banks compare against, the interval's ends
// and 1/2, and each value's float64 neighbours.
func TestFloat64Threshold(t *testing.T) {
	m := envelope.PaperSource()
	var ps []float64
	for _, p := range []float64{0, 0.5, m.P11, m.P22, 1} {
		ps = append(ps, math.Nextafter(p, math.Inf(-1)), p, math.Nextafter(p, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range ps {
		thr := Float64Threshold(p)
		check := func(x uint64) {
			f := float64(int64(x)) * inv63
			if (f < p) != (x < thr) || (f >= p) != (x >= thr) {
				t.Fatalf("p=%v: draw %d (Float64 %v) against T(p)=%d", p, x, f, thr)
			}
		}
		for d := -3; d <= 3; d++ {
			if x := int64(thr) + int64(d); x >= 0 && uint64(x) < 1<<63 {
				check(uint64(x))
			}
		}
		for i := 0; i < 10_000; i++ {
			check(uint64(rng.Int63()))
		}
	}
	// The redraw threshold: the top 512 draws round to 2⁶³, i.e. to 1.0.
	if got, want := Float64Threshold(1), uint64(1<<63-1<<9); got != want {
		t.Fatalf("T(1) = %d, want %d", got, want)
	}
	for _, tc := range []struct {
		p    float64
		want uint64
	}{{-0.5, 0}, {0, 0}, {2, 1 << 63}, {math.NaN(), 0}} {
		if got := Float64Threshold(tc.p); got != tc.want {
			t.Errorf("T(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func BenchmarkRandFloat64(b *testing.B) {
	r := NewRand(9)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.Float64()
	}
	_ = sum
}

// BenchmarkRandFill reports ns/op per draw: b.N draws in fills of the
// paper's 80-flow cross bank, the size one aggregate draws per slot.
func BenchmarkRandFill(b *testing.B) {
	r := NewRand(9)
	buf := make([]uint64, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		r.Fill(buf[:min(len(buf), b.N-i)])
	}
}

func BenchmarkMathRandFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.Float64()
	}
	_ = sum
}
