package randx

// SeedStream derives statistically independent per-replication seeds
// from one root seed, so a replicated simulation can give every
// replication its own `rand.Source` without any coordination: replication
// i always receives Seed(i) regardless of how many workers run the
// replications or in which order they complete.
//
// The derivation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the
// i-th seed is the output of the SplitMix64 mixer applied to
// root + (i+1)·γ, where γ = 0x9E3779B97F4A7C15 is the 64-bit golden
// ratio increment. The mixer is a bijection on 64-bit integers whose
// output passes BigCrush, so nearby roots and nearby indices produce
// uncorrelated seeds — exactly the property replication needs (adjacent
// replication indices must not produce correlated math/rand streams).
// The +1 offset keeps Seed(0) distinct from a naive hash of the root
// itself, so reusing the root seed directly for a single unreplicated
// run never collides with replication 0.
type SeedStream struct {
	root uint64
}

// NewSeedStream fixes the root seed of the stream.
func NewSeedStream(root int64) SeedStream {
	return SeedStream{root: uint64(root)}
}

// splitmix64Gamma is the golden-ratio increment of SplitMix64.
const splitmix64Gamma = 0x9E3779B97F4A7C15

// Seed returns the seed of replication i. It is a pure function of
// (root, i): calls may come from any goroutine in any order.
func (s SeedStream) Seed(i int) int64 {
	z := s.root + (uint64(i)+1)*splitmix64Gamma
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
