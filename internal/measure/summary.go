package measure

// This file defines the measurement backend seam: Summary is the
// interface every layer above the simulator talks to (recorders fill
// one, replication merges pool them, scenarios and CLIs query them),
// and Backend selects an implementation. Two backends exist:
//
//   - exact (*Distribution): the historical full per-sample
//     distribution. Memory grows linearly with the recorded horizon;
//     every query is exact. This is the default and its outputs are
//     byte-identical to the pre-seam pipeline.
//   - sketch (*Sketch): a GK-style fixed-memory mergeable quantile
//     summary (sketch.go). Memory is O(SketchK) regardless of horizon;
//     quantile queries carry a reported rank-error bound.
//
// Both backends share the merge discipline introduced by the
// replication layer: merges are bit-commutative and replications fold
// in index order, so pooled results are invariant to worker count.

import "fmt"

// Summary is the delay-measurement seam: a bit-weighted summary of
// integer slot delays that can absorb samples one at a time, merge with
// peers of the same backend, and answer the distribution queries the
// scenario and CLI layers need.
//
// The conservative conventions of the exact backend are part of the
// contract: Quantile(p) returns a delay whose cumulative measured mass
// is at least p, ViolationFraction counts censored mass as violating,
// and CCDF treats censored mass as exceeding every delay.
type Summary interface {
	// Add records bits of traffic that experienced the given delay
	// (in slots).
	Add(delay int, bits float64)
	// AddCensored records bits whose delay was right-censored by the
	// simulation horizon.
	AddCensored(bits float64)
	// MergeFrom pools another summary of the same backend into the
	// receiver, as if one run had observed both sample sets. It fails
	// on a backend mismatch and never modifies the argument beyond
	// flushing internal buffers (a semantic no-op).
	MergeFrom(o Summary) error
	// Clone returns an independent deep copy.
	Clone() Summary

	// Quantile returns the smallest tracked delay d such that at least
	// fraction p of the measured bits experienced delay <= d, within
	// the backend's rank-error bound (see RankError).
	Quantile(p float64) (int, error)
	// ViolationFraction estimates P(W > bound) over measured plus
	// censored mass; censored mass counts as violating.
	ViolationFraction(bound float64) float64
	// Max returns the largest measured delay (exact on both backends).
	Max() (int, error)
	// Mean returns the bit-weighted mean delay (exact on both backends).
	Mean() (float64, error)
	// Samples returns the number of recorded samples and the measured
	// volume.
	Samples() (n int, bits float64)
	// TotalBits returns the measured (non-censored) volume.
	TotalBits() float64
	// CensoredBits returns the right-censored volume.
	CensoredBits() float64
	// CensoredFraction returns censored / (measured + censored).
	CensoredFraction() float64
	// CCDF returns the empirical complementary CDF as (delay, P(W >
	// delay)) pairs sorted by delay; censored mass exceeds every delay.
	CCDF() (delays, probs []float64)

	// RankError returns the backend's guaranteed rank-error bound for
	// Quantile on the current contents: the returned delay q brackets
	// between exact quantiles, Quantile_exact(p) <= q <=
	// Quantile_exact(min(1, p+RankError())). The exact backend
	// reports 0.
	RankError() float64
	// MemoryBytes estimates the resident size of the summary's
	// payload. It is a pure function of the summary's logical content,
	// so merged results stay comparable across worker counts.
	MemoryBytes() int
	// BackendName names the implementation ("exact" or "sketch").
	BackendName() string
}

// Backend selects a Summary implementation.
type Backend int

const (
	// BackendExact retains every sample: exact queries, O(horizon)
	// memory. The default.
	BackendExact Backend = iota
	// BackendSketch keeps a fixed-size GK-style quantile sketch: O(1)
	// memory, quantiles within a reported rank-error bound.
	BackendSketch
)

// ParseBackend maps the -measure flag spelling to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "exact":
		return BackendExact, nil
	case "sketch":
		return BackendSketch, nil
	default:
		return 0, fmt.Errorf("measure: unknown backend %q (want exact or sketch)", s)
	}
}

func (b Backend) String() string {
	switch b {
	case BackendExact:
		return "exact"
	case BackendSketch:
		return "sketch"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// New returns an empty summary of the backend.
func (b Backend) New() Summary {
	switch b {
	case BackendSketch:
		return NewSketch()
	default:
		return &Distribution{}
	}
}

// MergeSummaries pools summaries by folding MergeFrom in index order
// over a clone of the first entry. The fold order is fixed, so for a
// fixed input slice the result is bit-identical regardless of how the
// inputs were produced across workers. The inputs are not modified.
func MergeSummaries(ss []Summary) (Summary, error) {
	if len(ss) == 0 {
		return nil, ErrNoSamples
	}
	out := ss[0].Clone()
	for i, s := range ss[1:] {
		if err := out.MergeFrom(s); err != nil {
			return nil, fmt.Errorf("measure: merging summary %d: %w", i+1, err)
		}
	}
	return out, nil
}

// Interface conformance of both backends.
var (
	_ Summary = (*Distribution)(nil)
	_ Summary = (*Sketch)(nil)
)

// The methods below complete *Distribution's Summary implementation;
// the query methods live in measure.go and predate the seam.

// Add appends one delay sample, exactly as the Distribution builder
// does on the per-slot path.
func (d *Distribution) Add(delay int, bits float64) {
	d.delays = append(d.delays, delay)
	d.weights = append(d.weights, bits)
	d.totalBits += bits
}

// AddCensored records right-censored volume.
func (d *Distribution) AddCensored(bits float64) { d.censored += bits }

// MergeFrom pools another exact distribution into the receiver via the
// bit-commutative Merge.
func (d *Distribution) MergeFrom(o Summary) error {
	od, ok := o.(*Distribution)
	if !ok {
		return fmt.Errorf("measure: cannot merge %s summary into exact distribution", o.BackendName())
	}
	*d = d.Merge(*od)
	return nil
}

// Clone returns a deep copy.
func (d *Distribution) Clone() Summary {
	out := Distribution{
		delays:    append([]int(nil), d.delays...),
		weights:   append([]float64(nil), d.weights...),
		totalBits: d.totalBits,
		censored:  d.censored,
	}
	return &out
}

// TotalBits returns the measured (non-censored) volume.
func (d Distribution) TotalBits() float64 { return d.totalBits }

// RankError is zero: every exact query is exact.
func (d Distribution) RankError() float64 { return 0 }

// MemoryBytes reports the payload size of the retained samples: one
// (int, float64) pair per sample. Grows linearly with the horizon —
// the number the sketch backend exists to bound.
func (d Distribution) MemoryBytes() int {
	return 16*len(d.delays) + 16
}

// BackendName identifies the exact backend.
func (d Distribution) BackendName() string { return "exact" }
