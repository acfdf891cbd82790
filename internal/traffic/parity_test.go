package traffic

import (
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/randx"
)

// TestFastRNGStreamParity pins the devirtualized paths against the
// original interface paths: a source built on the concrete *randx.Rand
// must emit the bit-identical per-slot sequence as one built on the
// equally-seeded *math/rand.Rand, for single MMOO flows, shared-RNG
// aggregates, and count aggregates, and for netsim's tandem wiring (one
// RNG behind a 30-flow through bank and ten 80-flow cross banks, drained
// slot-major), which pins the stream position where one bank's block of
// draws ends and the next one's begins. This is the property that lets
// the scenario runner swap its RNG without touching a single golden.
func TestFastRNGStreamParity(t *testing.T) {
	m := envelope.PaperSource()
	for _, seed := range []int64{1, 9, 42, -3} {
		legacyRNG := rand.New(rand.NewSource(seed))
		fastRNG := randx.NewRand(seed)

		legacyThrough, err := NewMMOOAggregate(m, 30, legacyRNG)
		if err != nil {
			t.Fatal(err)
		}
		fastThrough, err := NewMMOOAggregate(m, 30, fastRNG)
		if err != nil {
			t.Fatal(err)
		}
		if fastThrough.mm == nil {
			t.Fatal("aggregate on *randx.Rand did not take the devirtualized bank path")
		}
		legacySingle, err := NewMMOO(m, legacyRNG)
		if err != nil {
			t.Fatal(err)
		}
		fastSingle, err := NewMMOO(m, fastRNG)
		if err != nil {
			t.Fatal(err)
		}
		legacyCount, err := NewMMOOCountAggregate(m, 60, legacyRNG)
		if err != nil {
			t.Fatal(err)
		}
		fastCount, err := NewMMOOCountAggregate(m, 60, fastRNG)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave all three source kinds on the shared RNGs so the
		// parity also covers cross-source stream positions.
		for i := 0; i < 20_000; i++ {
			if w, g := legacyThrough.Next(), fastThrough.Next(); w != g {
				t.Fatalf("seed %d slot %d: aggregate %x != %x", seed, i, w, g)
			}
			if w, g := legacySingle.Next(), fastSingle.Next(); w != g {
				t.Fatalf("seed %d slot %d: mmoo %x != %x", seed, i, w, g)
			}
			if w, g := legacyCount.Next(), fastCount.Next(); w != g {
				t.Fatalf("seed %d slot %d: countagg %x != %x", seed, i, w, g)
			}
		}

		legacyTandem := tandemBanks(t, m, rand.New(rand.NewSource(seed)))
		fastTandem := tandemBanks(t, m, randx.NewRand(seed))
		for b, agg := range fastTandem {
			if !agg.uniform {
				t.Fatalf("tandem bank %d on *randx.Rand did not take the uniform bank path", b)
			}
		}
		for i := 0; i < 4_000; i++ {
			for b := range legacyTandem {
				if w, g := legacyTandem[b].Next(), fastTandem[b].Next(); w != g {
					t.Fatalf("seed %d slot %d: tandem bank %d %x != %x", seed, i, b, w, g)
				}
			}
		}
	}
}

// tandemBanks builds netsim's default per-source wiring on one RNG: the
// 30-flow through bank, then one 80-flow cross bank per node of a
// 10-node path, in the order the simulator drains them each slot.
func tandemBanks(t *testing.T, m envelope.MMOO, rng randx.Uniform) []*Aggregate {
	t.Helper()
	banks := make([]*Aggregate, 11)
	for b := range banks {
		n := 80
		if b == 0 {
			n = 30
		}
		agg, err := NewMMOOAggregate(m, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		banks[b] = agg
	}
	return banks
}

// BenchmarkMMOOAggregate times the per-source bank's slot step on the
// paper's 80-flow cross aggregate and reports ns per flow-slot, the unit
// of the fill cost per simulated flow.
func BenchmarkMMOOAggregate(b *testing.B) {
	const n = 80
	agg, err := NewMMOOAggregate(envelope.PaperSource(), n, randx.NewRand(9))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += agg.Next()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/flow-slot")
	_ = sum
}
