package randx

import (
	"math/rand"
	"testing"
)

// The stream must be a pure function of (root, index): same inputs, same
// seed, from any call order.
func TestSeedStreamDeterministic(t *testing.T) {
	s := NewSeedStream(42)
	want := make([]int64, 64)
	for i := range want {
		want[i] = s.Seed(i)
	}
	for trial := 0; trial < 3; trial++ {
		for _, i := range rand.New(rand.NewSource(int64(trial))).Perm(64) {
			if got := s.Seed(i); got != want[i] {
				t.Fatalf("Seed(%d) = %d on out-of-order call, want %d", i, got, want[i])
			}
		}
	}
}

// Seeds must be pairwise distinct across replications and across nearby
// roots — a collision would make two "independent" replications replay
// the identical sample path.
func TestSeedStreamDistinct(t *testing.T) {
	const perRoot = 1024
	seen := make(map[int64][2]int, 16*perRoot)
	for root := int64(0); root < 16; root++ {
		s := NewSeedStream(root)
		for i := 0; i < perRoot; i++ {
			seed := s.Seed(i)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("seed collision: root=%d i=%d and root=%d i=%d both map to %d",
					root, i, prev[0], prev[1], seed)
			}
			seen[seed] = [2]int{int(root), i}
			if seed == root {
				t.Fatalf("Seed(%d) of root %d equals the root itself", i, root)
			}
		}
	}
}

// The mixer output should look uniform: over many seeds every bit
// position must be set roughly half the time. This is a smoke test of
// stream quality, not a substitute for the published BigCrush results.
func TestSeedStreamBitBalance(t *testing.T) {
	const n = 4096
	s := NewSeedStream(1)
	var ones [64]int
	for i := 0; i < n; i++ {
		z := uint64(s.Seed(i))
		for b := 0; b < 64; b++ {
			ones[b] += int(z >> b & 1)
		}
	}
	for b, c := range ones {
		frac := float64(c) / n
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("bit %d set in %.3f of seeds, want ~0.5", b, frac)
		}
	}
}

// Derived math/rand streams must decorrelate: the sample means of
// adjacent replications' uniform streams should differ (identical means
// would indicate the seeds collapsed to the same generator state).
func TestSeedStreamIndependentStreams(t *testing.T) {
	s := NewSeedStream(7)
	const draws = 512
	mean := func(seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		sum := 0.0
		for i := 0; i < draws; i++ {
			sum += rng.Float64()
		}
		return sum / draws
	}
	m0, m1 := mean(s.Seed(0)), mean(s.Seed(1))
	if m0 == m1 {
		t.Fatalf("adjacent replication streams produced identical means (%g)", m0)
	}
}
