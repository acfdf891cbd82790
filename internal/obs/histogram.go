package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution metric, safe for concurrent
// use: Observe finds the bucket by binary search and increments it
// atomically, so the hot path is lock-free. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches everything above the
// last bound. A nil *Histogram discards observations, matching the
// nil-safety contract of Counter and Gauge.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; the +Inf bucket is counts[len(bounds)]
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomicFloat
}

// atomicFloat is an add-capable atomic float64 (CAS loop over the bits).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. The bounds are copied; a trailing +Inf bound is implicit and
// stripped if supplied.
func NewHistogram(bounds []float64) (*Histogram, error) {
	bs := append([]float64(nil), bounds...)
	if n := len(bs); n > 0 && math.IsInf(bs[n-1], 1) {
		bs = bs[:n-1]
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one finite bucket bound")
	}
	for i, b := range bs {
		if math.IsNaN(b) || (i > 0 && b <= bs[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds must be ascending, got %v", bounds)
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}, nil
}

// ExpBuckets returns n bucket bounds start, start·factor, start·factor²…
// — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	for v := start; len(out) < n; v *= factor {
		out = append(out, v)
	}
	return out
}

// Observe records one value. Nil-safe; NaN is discarded.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is the JSON form of a histogram: per-bucket
// (non-cumulative) counts aligned with the upper bounds, the +Inf bucket
// last.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // finite upper bounds; the final count bucket is +Inf
	Counts []int64   `json:"counts"` // len(Bounds)+1, non-cumulative
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot captures the current state. Nil-safe (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
