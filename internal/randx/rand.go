package randx

import "math/rand"

// Uniform is the minimal randomness contract of the traffic sources and
// samplers: one U[0,1) variate per call, consumed in call order. Both
// *math/rand.Rand and the concrete *Rand below satisfy it, so every
// constructor that used to demand a *rand.Rand now accepts either without
// breaking a single call site.
type Uniform interface {
	Float64() float64
}

var (
	_ Uniform = (*rand.Rand)(nil)
	_ Uniform = (*Rand)(nil)
)

const (
	fibLen  = 607             // feedback register length of math/rand's generator
	fibTap  = 273             // second tap position
	fibMask = 1<<63 - 1       // Int63 truncation mask
	inv63   = 1.0 / (1 << 63) // exact power of two: x*inv63 == x/2⁶³ bit for bit
	// vecLen pads the register array to a power of two: indexing with
	// `& (vecLen-1)` provably stays in bounds, so the two loads and the
	// store of the per-draw recurrence compile without bounds checks.
	// Only vec[0:fibLen] is ever touched — the mask never alters an
	// index, it only tells the compiler the range.
	vecLen = 1024
)

// Rand is a concrete re-implementation of math/rand's seeded generator —
// the additive lagged-Fibonacci register of rand.NewSource — producing the
// *bit-identical* value stream of rand.New(rand.NewSource(seed)) while
// being a plain struct the compiler can devirtualize and inline.
//
// Why it exists: the simulator's slot loop draws hundreds of uniforms per
// slot, and profiling shows nearly half of that time is the math/rand call
// chain (Rand.Float64 → Rand.Int63 → interface dispatch → rngSource), not
// the generator arithmetic. Simulated sample paths are pinned by goldens,
// so the stream cannot change; this type keeps the stream and removes the
// dispatch.
//
// Seeding does not replicate math/rand's seeding procedure (which depends
// on an unexported cooked table). Instead NewRand reconstructs the exact
// initial register state from a throwaway rand.Source: each of the first
// 607 outputs overwrites one register slot with a value the caller
// observes, so 607 draws determine the full initial state by exact integer
// back-substitution. TestRandMatchesMathRand pins the equivalence against
// the live math/rand for millions of draws, so a (hypothetical) stream
// change in a future Go release would be caught, not silently diverged
// from.
//
// A Rand is not safe for concurrent use, like math/rand's unsynchronized
// sources.
type Rand struct {
	tap, feed int32
	vec       [vecLen]int64 // live register is vec[0:fibLen]
}

// NewRand returns a generator whose Float64/Int63/Uint64 streams are
// bit-identical to rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *Rand {
	src := rand.NewSource(seed).(rand.Source64)
	var outs [fibLen]int64
	for i := range outs {
		outs[i] = int64(src.Uint64())
	}
	// Output i is produced as outs[i] = vec[feed_i] + vec[tap_i] with
	// feed_i = (fibLen-fibTap-1-i) mod fibLen and tap_i = (fibLen-1-i)
	// mod fibLen, then stored at feed_i. Over 607 calls every register
	// slot is written exactly once, and the tap read of call i is the
	// still-initial slot for i < fibTap and the call-(i-fibTap) output
	// afterwards. Both cases invert by exact (wrapping) subtraction.
	r := &Rand{tap: 0, feed: fibLen - fibTap}
	for i := fibTap; i < fibLen; i++ {
		feed := fibLen - fibTap - 1 - i
		if feed < 0 {
			feed += fibLen
		}
		r.vec[feed] = outs[i] - outs[i-fibTap]
	}
	for i := 0; i < fibTap; i++ {
		r.vec[fibLen-fibTap-1-i] = outs[i] - r.vec[fibLen-1-i]
	}
	return r
}

// Uint64 advances the register one step — the verbatim recurrence of
// math/rand's rngSource.Uint64.
func (r *Rand) Uint64() uint64 {
	t, f := r.tap-1, r.feed-1
	if t < 0 {
		t += fibLen
	}
	if f < 0 {
		f += fibLen
	}
	x := r.vec[f&(vecLen-1)] + r.vec[t&(vecLen-1)]
	r.vec[f&(vecLen-1)] = x
	r.tap, r.feed = t, f
	return uint64(x)
}

// Fill sets dst to the next len(dst) Uint64 outputs: the same values, and
// the same final stream position, as len(dst) successive Uint64 calls.
// It steps the recurrence over runs on which neither the tap nor the feed
// index wraps, so the wrap tests are paid once per run (at most three
// runs per 607 draws) instead of once per draw. Within a run both indices
// fall by one per step, and the steps execute in stream order, so a read
// of a slot written earlier in the same run sees the written value exactly
// as Uint64's one-step loop would.
func (r *Rand) Fill(dst []uint64) {
	tap, feed := int(r.tap), int(r.feed)
	for len(dst) > 0 {
		if tap == 0 {
			tap = fibLen
		}
		if feed == 0 {
			feed = fibLen
		}
		n := min(tap, feed, len(dst))
		// Step k reads vec[tap-1-k] and rewrites vec[feed-1-k]; as in
		// Uint64, the vecLen mask only proves the indices in bounds.
		out := dst[:n]
		t, f := tap-1, feed-1
		for k := range out {
			x := r.vec[(f-k)&(vecLen-1)] + r.vec[(t-k)&(vecLen-1)]
			r.vec[(f-k)&(vecLen-1)] = x
			out[k] = uint64(x)
		}
		tap -= n
		feed -= n
		dst = dst[n:]
	}
	r.tap, r.feed = int32(tap), int32(feed)
}

// Float64Threshold returns T(p), the number of 63-bit draws x whose
// Float64 value float64(x)·2⁻⁶³ is below p. Rounding to the nearest
// float64 is monotone in x and the power-of-two scaling is exact, so those
// draws form the prefix [0, T(p)): for every x < 2⁶³,
//
//	float64(x)·2⁻⁶³ < p  exactly when  x < T(p),
//
// and, for p other than NaN, float64(x)·2⁻⁶³ >= p exactly when x >= T(p).
// Float64Threshold(1) is the first draw that Float64 rounds to 1.0 and
// redraws. T(p) is found by binary search over Float64's own expression,
// so the equivalence holds bit for bit rather than up to a rounding
// argument; p <= 0 gives 0, p > 1 gives 2⁶³, and NaN gives 0.
func Float64Threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))*inv63 < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Int63 matches rand.(*Rand).Int63 for the same stream position.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & fibMask) }

// Float64 matches rand.(*Rand).Float64 bit for bit: the Go-1 value stream
// float64(Int63())/2⁶³, redrawing on the (astronomically rare) rounding
// to 1.0. Multiplying by the exact reciprocal instead of dividing changes
// no bits (power-of-two scaling is exact either way). The redraw loop
// lives in a separate slow-path function so this hot path stays
// loop-free and inlinable into the per-flow source steps.
func (r *Rand) Float64() float64 {
	f := float64(r.Int63()) * inv63
	if f == 1 {
		return r.float64Redraw()
	}
	return f
}

// float64Redraw finishes a Float64 draw whose first variate rounded to
// 1.0, repeating math/rand's redraw loop.
func (r *Rand) float64Redraw() float64 {
	for {
		f := float64(r.Int63()) * inv63
		if f != 1 {
			return f
		}
	}
}
