// Package minplus implements the (min,+) algebra on piecewise-linear
// functions that underpins the deterministic and stochastic network
// calculus: arrival envelopes, service curves, min-plus convolution, and
// the horizontal/vertical deviations that yield delay and backlog bounds.
//
// A Curve represents a function f: R -> R ∪ {+∞} with
//
//   - f(t) = 0 for t < 0 (the usual network-calculus convention),
//   - a finite piecewise-linear part on [0, infFrom), described by
//     segments, and
//   - f(t) = +∞ for t >= infFrom (used by the burst-delay function δ_d),
//     where infFrom is FromSegments' first argument.
//
// Jumps are allowed and follow the right-continuous convention: the value
// at a jump instant is the value of the segment that starts there. All
// derived bounds in this repository are insensitive to the convention at
// the (measure-zero) jump instants for the continuous arrival processes
// considered in the paper.
package minplus

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Segment is one linear piece of a Curve. It covers [T0, next segment's T0)
// — or [T0, infFrom) for the final segment — with value
// V0 + Slope·(t − T0).
type Segment struct {
	T0    float64 // start of the piece (inclusive)
	V0    float64 // value at T0
	Slope float64 // slope of the piece
}

// Curve is an immutable piecewise-linear function. The zero value is not
// usable; construct curves with FromSegments, FromPoints, or one of the
// named constructors (Zero, Affine, RateLatency, ...).
type Curve struct {
	segs    []Segment
	infFrom float64 // value is +∞ for t >= infFrom; +Inf when the curve is finite everywhere
}

var (
	// ErrEmpty indicates a curve constructed without segments.
	ErrEmpty = errors.New("minplus: curve needs at least one segment")
	// ErrUnsorted indicates segment start times that are not strictly increasing.
	ErrUnsorted = errors.New("minplus: segment start times must be strictly increasing from 0")
	// ErrNotFinite indicates a NaN or infinite value where a finite one is required.
	ErrNotFinite = errors.New("minplus: segment values and slopes must be finite")
)

// FromSegments builds a curve from explicit segments. The first segment
// must start at 0, starts must be strictly increasing, and all values and
// slopes must be finite. infFrom truncates the curve to +∞ from that time
// on; pass math.Inf(1) for a curve that is finite everywhere.
func FromSegments(infFrom float64, segs ...Segment) (Curve, error) {
	if len(segs) == 0 {
		return Curve{}, ErrEmpty
	}
	if segs[0].T0 != 0 {
		return Curve{}, fmt.Errorf("%w (first starts at %g)", ErrUnsorted, segs[0].T0)
	}
	if math.IsNaN(infFrom) || infFrom < 0 {
		return Curve{}, fmt.Errorf("minplus: invalid infFrom %g", infFrom)
	}
	prev := math.Inf(-1)
	for _, s := range segs {
		if s.T0 <= prev {
			return Curve{}, ErrUnsorted
		}
		if !isFinite(s.V0) || !isFinite(s.Slope) {
			return Curve{}, fmt.Errorf("%w: segment at t=%g", ErrNotFinite, s.T0)
		}
		prev = s.T0
	}
	c := Curve{segs: append([]Segment(nil), segs...), infFrom: infFrom}
	c.trim()
	return c, nil
}

// FromPoints builds a continuous curve through the given (t, v) breakpoints,
// connected linearly, with the given tail slope after the last point.
// Points must have strictly increasing times starting at 0. A jump can be
// expressed by listing two points with equal time; the later one wins from
// that instant on (right-continuous).
func FromPoints(tail float64, pts ...[2]float64) (Curve, error) {
	if len(pts) == 0 {
		return Curve{}, ErrEmpty
	}
	if pts[0][0] != 0 {
		return Curve{}, fmt.Errorf("%w (first point at t=%g)", ErrUnsorted, pts[0][0])
	}
	if !isFinite(tail) {
		return Curve{}, fmt.Errorf("%w: tail slope", ErrNotFinite)
	}
	segs := make([]Segment, 0, len(pts))
	for i, p := range pts {
		t, v := p[0], p[1]
		if !isFinite(v) || math.IsNaN(t) {
			return Curve{}, fmt.Errorf("%w: point %d", ErrNotFinite, i)
		}
		var slope float64
		if i+1 < len(pts) {
			nt, nv := pts[i+1][0], pts[i+1][1]
			switch {
			case nt < t:
				return Curve{}, ErrUnsorted
			case nt == t:
				// Jump: this point contributes only its instant; skip emitting
				// a zero-length segment by letting the next point override.
				continue
			default:
				slope = (nv - v) / (nt - t)
			}
		} else {
			slope = tail
		}
		if len(segs) > 0 && segs[len(segs)-1].T0 == t {
			segs[len(segs)-1] = Segment{T0: t, V0: v, Slope: slope}
			continue
		}
		segs = append(segs, Segment{T0: t, V0: v, Slope: slope})
	}
	return FromSegments(math.Inf(1), segs...)
}

// trim merges adjacent collinear segments and drops segments at or beyond
// infFrom, keeping the representation canonical.
func (c *Curve) trim() {
	if math.IsInf(c.infFrom, 1) == false {
		keep := c.segs[:0]
		for _, s := range c.segs {
			if s.T0 < c.infFrom {
				keep = append(keep, s)
			}
		}
		if len(keep) == 0 {
			keep = append(keep, Segment{})
		}
		c.segs = keep
	}
	out := c.segs[:0]
	for _, s := range c.segs {
		if n := len(out); n > 0 {
			p := out[n-1]
			endV := p.V0 + p.Slope*(s.T0-p.T0)
			if p.Slope == s.Slope && nearlyEqual(endV, s.V0) {
				continue // collinear continuation
			}
		}
		out = append(out, s)
	}
	c.segs = out
}

// Zero returns the curve that is identically 0 on [0, ∞).
func Zero() Curve {
	c, _ := FromSegments(math.Inf(1), Segment{})
	return c
}

// ConstantRate returns f(t) = rate·t, the service curve of a constant-rate
// link.
func ConstantRate(rate float64) Curve {
	c, _ := FromSegments(math.Inf(1), Segment{Slope: rate})
	return c
}

// Affine returns the token-bucket (leaky-bucket) curve
// γ_{rate,burst}(t) = burst + rate·t for t >= 0. Together with the f(t)=0
// for t<0 convention this is the standard deterministic envelope
// E(t) = Rt + B of the paper's Section II-A.
func Affine(rate, burst float64) Curve {
	c, _ := FromSegments(math.Inf(1), Segment{V0: burst, Slope: rate})
	return c
}

// RateLatency returns β_{R,T}(t) = R·[t−T]_+, the canonical service curve
// with rate R and latency T.
func RateLatency(rate, latency float64) Curve {
	if latency <= 0 {
		return ConstantRate(rate)
	}
	c, _ := FromSegments(math.Inf(1),
		Segment{},
		Segment{T0: latency, Slope: rate},
	)
	return c
}

// Delay returns the burst-delay function δ_d: 0 for t < d and +∞ from d on
// (right-continuous convention; the convolution A∗δ_d(t) = A(t−d) is exact
// either way for continuous A).
func Delay(d float64) Curve {
	if d <= 0 {
		d = 0
	}
	c, _ := FromSegments(d, Segment{})
	return c
}

// Step returns the curve that is 0 before t0 and v from t0 on.
func Step(t0, v float64) Curve {
	if t0 <= 0 {
		c, _ := FromSegments(math.Inf(1), Segment{V0: v})
		return c
	}
	c, _ := FromSegments(math.Inf(1),
		Segment{},
		Segment{T0: t0, V0: v},
	)
	return c
}

// Eval returns f(t). By convention f(t) = 0 for t < 0 and f(t) = +∞ for
// t >= infFrom.
func (c Curve) Eval(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t >= c.infFrom {
		return math.Inf(1)
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].T0 > t }) - 1
	if i < 0 {
		i = 0
	}
	s := c.segs[i]
	return s.V0 + s.Slope*(t-s.T0)
}

// LastBreak returns the start time of the final finite segment.
func (c Curve) LastBreak() float64 { return c.segs[len(c.segs)-1].T0 }

// TailSlope returns the slope of the final finite segment.
func (c Curve) TailSlope() float64 { return c.segs[len(c.segs)-1].Slope }

// IsFinite reports whether the curve never takes the value +∞.
func (c Curve) IsFinite() bool { return math.IsInf(c.infFrom, 1) }

// NonDecreasing reports whether the curve is non-decreasing, as required of
// envelopes and of service curves in the sense of the paper's Eq. (5).
func (c Curve) NonDecreasing() bool {
	for i, s := range c.segs {
		if s.Slope < 0 {
			return false
		}
		if i > 0 {
			p := c.segs[i-1]
			if s.V0 < p.V0+p.Slope*(s.T0-p.T0)-eqTol {
				return false
			}
		}
	}
	return true
}

// breakTimes returns the sorted times at which the curve may change slope,
// including 0 and the +∞ boundary when present.
func (c Curve) breakTimes() []float64 {
	ts := make([]float64, 0, len(c.segs)+1)
	for _, s := range c.segs {
		ts = append(ts, s.T0)
	}
	if !c.IsFinite() {
		ts = append(ts, c.infFrom)
	}
	return ts
}

// String renders the curve for debugging and error messages.
func (c Curve) String() string {
	var b strings.Builder
	for i, s := range c.segs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "[%g: %g +%g·t]", s.T0, s.V0, s.Slope)
	}
	if !c.IsFinite() {
		fmt.Fprintf(&b, "; [%g: +inf]", c.infFrom)
	}
	return b.String()
}

// AlmostEqual reports whether two curves agree within tol at every
// breakpoint of either curve up to horizon, at horizon itself, and in tail
// slope. It is intended for tests.
func AlmostEqual(a, b Curve, tol, horizon float64) bool {
	ts := append(a.breakTimes(), b.breakTimes()...)
	ts = append(ts, horizon)
	for _, t := range ts {
		if t > horizon {
			continue
		}
		va, vb := a.Eval(t), b.Eval(t)
		if math.IsInf(va, 1) != math.IsInf(vb, 1) {
			return false
		}
		if !math.IsInf(va, 1) && math.Abs(va-vb) > tol {
			return false
		}
		// Also compare just after t to catch mismatched jumps.
		va, vb = a.Eval(t+tol/4), b.Eval(t+tol/4)
		if math.IsInf(va, 1) != math.IsInf(vb, 1) {
			return false
		}
		if !math.IsInf(va, 1) && math.Abs(va-vb) > tol {
			return false
		}
	}
	return true
}

const eqTol = 1e-9

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func nearlyEqual(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= eqTol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-12*m
}
