package minplus

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadArgument indicates an out-of-range scalar argument (negative or
// non-finite scale factors and shift distances). Callers hit it with
// invalid inputs at the package boundary; invariant violations inside the
// package remain panics tagged "minplus: internal".
var ErrBadArgument = errors.New("minplus: argument out of range")

// Add returns the pointwise sum f+g.
func Add(f, g Curve) Curve {
	return combine(f, g, func(a, b float64) float64 { return a + b }, false)
}

// SubPos returns the pointwise positive part of the difference, [f−g]_+,
// the operation used to construct leftover service curves (paper Eqs. 8
// and 19). Where g = +∞ (and f is finite) the result is 0; where f = +∞
// the result is +∞.
func SubPos(f, g Curve) Curve {
	op := func(a, b float64) float64 {
		if math.IsInf(a, 1) {
			return math.Inf(1)
		}
		if math.IsInf(b, 1) {
			return 0
		}
		return math.Max(0, a-b)
	}
	return combine(f, g, op, true)
}

// Min returns the pointwise minimum (lower envelope) of f and g.
func Min(f, g Curve) Curve {
	return combine(f, g, math.Min, true)
}

// Max returns the pointwise maximum (upper envelope) of f and g.
func Max(f, g Curve) Curve {
	return combine(f, g, math.Max, true)
}

// ShiftRight returns f(·−d) for finite d >= 0, i.e. the min-plus
// convolution f ∗ δ_d; other distances are rejected with ErrBadArgument.
// The shifted curve is 0 on [0, d).
func ShiftRight(f Curve, d float64) (Curve, error) {
	if d < 0 || !isFinite(d) {
		return Curve{}, fmt.Errorf("%w: ShiftRight distance %g", ErrBadArgument, d)
	}
	if d == 0 {
		return f, nil
	}
	segs := make([]Segment, 0, len(f.segs)+1)
	segs = append(segs, Segment{}) // 0 on [0, d)
	for _, s := range f.segs {
		segs = append(segs, Segment{T0: s.T0 + d, V0: s.V0, Slope: s.Slope})
	}
	c, err := FromSegments(f.infFrom+d, segs...)
	if err != nil {
		panic("minplus: internal: " + err.Error())
	}
	return c, nil
}

// ShiftLeft returns f(·+d) restricted to [0, ∞), for finite d >= 0; other
// distances are rejected with ErrBadArgument. It is used to evaluate
// envelopes at advanced arguments, e.g. E_k(t + Δ_{j,k}) in the paper's
// schedulability condition (Eq. 24).
func ShiftLeft(f Curve, d float64) (Curve, error) {
	if d < 0 || !isFinite(d) {
		return Curve{}, fmt.Errorf("%w: ShiftLeft distance %g", ErrBadArgument, d)
	}
	if d == 0 {
		return f, nil
	}
	if d >= f.infFrom {
		c, err := FromSegments(0, Segment{})
		if err != nil {
			panic("minplus: internal: " + err.Error())
		}
		return c, nil
	}
	segs := []Segment{{V0: f.Eval(d), Slope: slopeAt(f, d)}}
	for _, s := range f.segs {
		if s.T0 <= d {
			continue
		}
		segs = append(segs, Segment{T0: s.T0 - d, V0: s.V0, Slope: s.Slope})
	}
	c, err := FromSegments(f.infFrom-d, segs...)
	if err != nil {
		panic("minplus: internal: " + err.Error())
	}
	return c, nil
}

// ZeroUntil returns the curve f(t)·1{t > θ}: identically 0 on [0, θ] and
// equal to f afterwards (with a jump at θ when f(θ) > 0). This implements
// the indicator factor of the paper's Theorem 1.
func ZeroUntil(f Curve, theta float64) Curve {
	if theta <= 0 {
		return f
	}
	segs := []Segment{{}}
	if theta >= f.infFrom {
		// f is already +∞ at θ: the gated curve is 0 up to θ, +∞ after.
		c, err := FromSegments(theta, segs...)
		if err != nil {
			panic("minplus: internal: " + err.Error())
		}
		return c
	}
	for i, s := range f.segs {
		end := f.infFrom
		if i+1 < len(f.segs) {
			end = f.segs[i+1].T0
		}
		if end <= theta {
			continue
		}
		t0 := math.Max(s.T0, theta)
		segs = append(segs, Segment{T0: t0, V0: s.V0 + s.Slope*(t0-s.T0), Slope: s.Slope})
	}
	c, err := FromSegments(f.infFrom, segs...)
	if err != nil {
		panic("minplus: internal: " + err.Error())
	}
	return c
}

// Convolve returns the min-plus convolution
//
//	(f ∗ g)(t) = inf_{0<=s<=t} { f(s) + g(t−s) },
//
// the operation that concatenates per-node service curves into a network
// service curve (paper Section II-B). The implementation is exact for
// piecewise-linear curves: every pair of linear pieces convolves to a
// two-piece path, and the result is the lower envelope of all such paths,
// with the tail slope min(tail_f, tail_g) attached beyond the last
// breakpoints (curves with affine tails convolve to affine tails).
func Convolve(f, g Curve) Curve {
	infFrom := f.infFrom + g.infFrom // +∞ iff either is finite everywhere

	// Horizon up to which the piecewise structure must be computed.
	hf := f.LastBreak()
	if !f.IsFinite() {
		hf = f.infFrom
	}
	hg := g.LastBreak()
	if !g.IsFinite() {
		hg = g.infFrom
	}
	horizon := hf + hg
	if horizon == 0 {
		horizon = 1 // both single-segment from 0: any positive horizon works
	}

	pf := piecesOf(f, horizon)
	pg := piecesOf(g, horizon)
	// Each pair contributes at most two pieces; one sized backing array
	// replaces the per-pair slice returns of the quadratic loop.
	cand := make([]piece, 0, 2*len(pf)*len(pg))
	for _, a := range pf {
		for _, b := range pg {
			cand = appendConvolvePair(cand, a, b)
		}
	}
	segs := lowerEnvelope(cand, 0, horizon)

	tail := math.Min(f.TailSlope(), g.TailSlope())
	if !f.IsFinite() {
		tail = g.TailSlope()
	}
	if !g.IsFinite() {
		tail = f.TailSlope()
	}
	if !f.IsFinite() && !g.IsFinite() {
		tail = 0 // irrelevant: the result is +∞ from infFrom on
	}
	segs = withTail(segs, horizon, tail, infFrom)
	c, err := FromSegments(infFrom, segs...)
	if err != nil {
		panic("minplus: internal convolve: " + err.Error())
	}
	return c
}

// piece is a linear function on the bounded interval [a, b].
type piece struct {
	a, b  float64
	v0    float64 // value at a
	slope float64
}

func (p piece) at(t float64) float64 { return p.v0 + p.slope*(t-p.a) }

// piecesOf decomposes the finite part of c into bounded pieces covering
// [0, min(horizon, c.infFrom)], extending the last segment to the horizon.
func piecesOf(c Curve, horizon float64) []piece {
	end := math.Min(horizon, c.infFrom)
	out := make([]piece, 0, len(c.segs))
	for i, s := range c.segs {
		b := end
		if i+1 < len(c.segs) {
			b = math.Min(end, c.segs[i+1].T0)
		}
		if s.T0 >= b && i+1 < len(c.segs) {
			continue
		}
		a := s.T0
		if a > end {
			break
		}
		if i+1 == len(c.segs) {
			b = end
		}
		if b < a {
			b = a
		}
		out = append(out, piece{a: a, b: b, v0: s.V0, slope: s.Slope})
	}
	return out
}

// appendConvolvePair appends the min-plus convolution of two linear
// pieces to dst: at most two pieces forming the slope-sorted path from
// (a1+a2, v1+v2) to (b1+b2, end1+end2).
func appendConvolvePair(dst []piece, p, q piece) []piece {
	if p.slope > q.slope {
		p, q = q, p
	}
	start := p.v0 + q.v0
	lenP := p.b - p.a
	lenQ := q.b - q.a
	t0 := p.a + q.a
	n := len(dst)
	if lenP > 0 {
		dst = append(dst, piece{a: t0, b: t0 + lenP, v0: start, slope: p.slope})
		start += p.slope * lenP
		t0 += lenP
	}
	if lenQ > 0 {
		dst = append(dst, piece{a: t0, b: t0 + lenQ, v0: start, slope: q.slope})
	}
	if len(dst) == n { // two degenerate points
		dst = append(dst, piece{a: t0, b: t0, v0: start})
	}
	return dst
}

// lowerEnvelope computes the pointwise minimum of the pieces over
// [lo, hi], returned as curve segments. Pieces need not cover the whole
// interval individually but their union must.
func lowerEnvelope(ps []piece, lo, hi float64) []Segment {
	if hi <= lo {
		return []Segment{{T0: lo, V0: minAt(ps, lo)}}
	}
	// Candidate breakpoints: piece endpoints and pairwise intersections.
	ts := make([]float64, 0, 2+2*len(ps))
	ts = append(ts, lo, hi)
	for _, p := range ps {
		if p.a >= lo && p.a <= hi {
			ts = append(ts, p.a)
		}
		if p.b >= lo && p.b <= hi {
			ts = append(ts, p.b)
		}
	}
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			p, q := ps[i], ps[j]
			a := math.Max(math.Max(p.a, q.a), lo)
			b := math.Min(math.Min(p.b, q.b), hi)
			if b <= a {
				continue
			}
			ds := p.slope - q.slope
			if ds == 0 {
				continue
			}
			x := p.a + (q.at(p.a)-p.v0)/ds
			if x > a && x < b {
				ts = append(ts, x)
			}
		}
	}
	ts = dedupSorted(ts)

	segs := make([]Segment, 0, len(ts))
	for i := 0; i+1 < len(ts); i++ {
		a, b := ts[i], ts[i+1]
		mid := a + (b-a)/2
		bestV, bestS := math.Inf(1), 0.0
		for _, p := range ps {
			if mid < p.a || mid > p.b {
				continue
			}
			if v := p.at(mid); v < bestV {
				bestV, bestS = v, p.slope
			}
		}
		if math.IsInf(bestV, 1) {
			// A gap in coverage can only come from degenerate inputs; treat
			// the envelope as continuing linearly.
			continue
		}
		v0 := bestV - bestS*(mid-a)
		if n := len(segs); n > 0 && segs[n-1].T0 == a {
			segs = segs[:n-1]
		}
		segs = append(segs, Segment{T0: a, V0: v0, Slope: bestS})
	}
	if len(segs) == 0 {
		segs = []Segment{{T0: lo, V0: minAt(ps, lo)}}
	}
	return segs
}

func minAt(ps []piece, t float64) float64 {
	best := math.Inf(1)
	for _, p := range ps {
		if t < p.a || t > p.b {
			continue
		}
		if v := p.at(t); v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		best = 0
	}
	return best
}

// withTail replaces everything from `from` on with a linear tail of the
// given slope, anchored at the envelope value reached at `from`, unless the
// curve becomes +∞ at or before `from`.
func withTail(segs []Segment, from, tail, infFrom float64) []Segment {
	if infFrom <= from {
		return segs
	}
	v := evalSegs(segs, from)
	out := segs[:0]
	for _, s := range segs {
		if s.T0 < from {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = append(out, Segment{V0: v, Slope: tail})
		return out
	}
	lastIdx := len(out) - 1
	last := out[lastIdx]
	if last.Slope == tail && nearlyEqual(last.V0+last.Slope*(from-last.T0), v) {
		return out // tail already continues the last segment
	}
	out = append(out, Segment{T0: from, V0: v, Slope: tail})
	return out
}

func evalSegs(segs []Segment, t float64) float64 {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].T0 > t }) - 1
	if i < 0 {
		i = 0
	}
	s := segs[i]
	return s.V0 + s.Slope*(t-s.T0)
}

// combine merges two curves pointwise with the given operator. When
// splitCrossings is set, the interval between two merged breakpoints is
// split where the operands cross so that Min/Max/SubPos stay exact.
func combine(f, g Curve, op func(a, b float64) float64, splitCrossings bool) Curve {
	ts := append(f.breakTimes(), g.breakTimes()...)
	ts = dedupSorted(ts)

	if splitCrossings {
		// Insert the points where f and g cross inside each interval, so
		// that the operator result is linear between consecutive ts. The
		// last interval extends to +∞ (both curves are linear there).
		var extra []float64
		for i, t := range ts {
			end := math.Inf(1)
			if i+1 < len(ts) {
				end = ts[i+1]
			}
			va, vb := f.Eval(t), g.Eval(t)
			if math.IsInf(va, 1) || math.IsInf(vb, 1) {
				continue
			}
			ds := slopeAt(f, t) - slopeAt(g, t)
			if ds == 0 {
				continue
			}
			if x := t - (va-vb)/ds; x > t && x < end {
				extra = append(extra, x)
			}
		}
		ts = dedupSorted(append(ts, extra...))
	}
	horizon := ts[len(ts)-1] + 1

	var segs []Segment
	infFrom := math.Inf(1)
	for i, t := range ts {
		va, vb := f.Eval(t), g.Eval(t)
		v := op(va, vb)
		if math.IsInf(v, 1) {
			infFrom = t
			break
		}
		end := horizon
		if i+1 < len(ts) {
			end = ts[i+1]
		}
		mid := t + (end-t)/2
		vm := op(f.Eval(mid), g.Eval(mid))
		slope := 0.0
		if !math.IsInf(vm, 1) && mid > t {
			slope = (vm - v) / (mid - t)
		}
		segs = append(segs, Segment{T0: t, V0: v, Slope: slope})
	}
	if len(segs) == 0 {
		segs = []Segment{{}}
		if infFrom > 0 {
			infFrom = 0
		}
	}
	c, err := FromSegments(infFrom, segs...)
	if err != nil {
		panic("minplus: internal combine: " + err.Error())
	}
	return c
}

// slopeAt returns the slope of the segment of c containing t (right-side
// slope at breakpoints); 0 within the +∞ region.
func slopeAt(c Curve, t float64) float64 {
	if t < 0 || t >= c.infFrom {
		return 0
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].T0 > t }) - 1
	if i < 0 {
		i = 0
	}
	return c.segs[i].Slope
}

func dedupSorted(ts []float64) []float64 {
	sort.Float64s(ts)
	out := ts[:0]
	for _, t := range ts {
		if math.IsInf(t, 1) || math.IsNaN(t) {
			continue
		}
		if len(out) == 0 || t > out[len(out)-1]+eqTol {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// LowerNonDecreasing returns the non-decreasing lower closure
//
//	f̄(t) = inf_{u >= t} f(u),
//
// the largest non-decreasing function below f. Replacing a service curve
// by its closure preserves validity (a smaller service curve is always
// valid) and restores the monotonicity that delay-bound computations
// require — Theorem 1 leftover curves with negative Δ and small θ are
// non-monotone and need this. The tail slope must be non-negative,
// otherwise the infimum is −∞ and an error is returned.
func LowerNonDecreasing(f Curve) (Curve, error) {
	if f.NonDecreasing() {
		return f, nil
	}
	if f.TailSlope() < 0 {
		return Curve{}, fmt.Errorf("minplus: closure diverges to -inf (tail slope %g)", f.TailSlope())
	}
	// Sweep segments right-to-left, carrying the minimum M of the closure
	// to the right of the current segment; within a segment the closure is
	// min(linear piece, M) — at most two sub-pieces.
	type piece struct{ t0, v0, slope float64 }
	var rev []piece
	m := math.Inf(1)
	for i := len(f.segs) - 1; i >= 0; i-- {
		s := f.segs[i]
		end := f.infFrom
		if i+1 < len(f.segs) {
			end = f.segs[i+1].T0
		}
		if math.IsInf(end, 1) {
			// Final, unbounded segment with slope >= 0: closure equals f here.
			rev = append(rev, piece{s.T0, s.V0, s.Slope})
			m = s.V0
			continue
		}
		endV := s.V0 + s.Slope*(end-s.T0)
		m = math.Min(m, endV)
		switch {
		case s.V0+s.Slope*0 >= m && endV >= m && s.Slope >= 0 && s.V0 >= m:
			// Entire segment at or above M with non-negative slope but
			// starting above the future minimum: closure is flat at M.
			rev = append(rev, piece{s.T0, m, 0})
		case s.Slope <= 0:
			// Non-increasing piece: closure is flat at min(endV, M) = m.
			rev = append(rev, piece{s.T0, m, 0})
		default:
			// Increasing piece capped by M: linear until it reaches M, flat after.
			if endV <= m {
				rev = append(rev, piece{s.T0, s.V0, s.Slope})
				m = math.Min(m, s.V0)
				continue
			}
			x := s.T0 + (m-s.V0)/s.Slope
			if x > s.T0 {
				rev = append(rev, piece{x, m, 0})
				rev = append(rev, piece{s.T0, s.V0, s.Slope})
			} else {
				rev = append(rev, piece{s.T0, m, 0})
			}
			m = math.Min(m, s.V0)
			continue
		}
		m = math.Min(m, s.V0)
	}
	segs := make([]Segment, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		p := rev[i]
		segs = append(segs, Segment{T0: p.t0, V0: p.v0, Slope: p.slope})
	}
	return FromSegments(f.infFrom, segs...)
}
