package measure

// Sketch is the fixed-memory measurement backend: a Greenwald-Khanna
// style quantile summary over bit-weighted integer slot delays. Instead
// of retaining one sample per slot (the exact Distribution), it keeps
// at most O(SketchK) tuples
//
//	(lo, v, g, d)
//
// sorted by strictly increasing v, where g is the mass attributed to
// the interval (v_prev, v], lo is the smallest original delay folded
// into the tuple, and d bounds the additional mass that may lie at or
// below v without being attributed yet. The invariant maintained by
// every operation is
//
//	cumg(i) <= W·F(v_i) <= cumg(i) + d_i
//
// with cumg(i) the prefix sum of g and F the true measured CDF. From it
// follows the query guarantee: Quantile(p) returns the smallest v_i
// with cumg(i) >= p·W, so F(v_i) >= p while the mass strictly below
// v_i stays under p·W + d_i + g_i·[lo_i < v_i]; the returned value
// therefore brackets between the exact p- and (p+ε)-quantiles with
// ε = max_i (d_i + g_i·[lo_i < v_i]) / W — exactly what RankError
// reports. Tuples that still cover a single original delay (lo == v)
// answer exactly (their g does not contribute query error), so small
// inputs — constant, two-point, anything with fewer distinct delays
// than the capacity — reproduce the exact backend bit for bit.
//
// Determinism and mergeability carry the replication layer's contract:
// adds are deterministic in insertion order, Merge meets per-value
// masses in single commutative additions over the sorted union (so
// Merge(a,b) is bit-identical to Merge(b,a)), and compaction is a pure
// function of the tuple list. Under the index-order fold of
// MergeSummaries the pooled sketch is therefore invariant to worker
// count, exactly like a pooled Distribution. Merging inflates d by the
// straddling tuples' g — bounded by the compaction target 2W/SketchK
// per merge — so the reported rank error stays O(1/SketchK) no matter
// how many replications fold in.

import (
	"cmp"
	"fmt"
	"slices"
)

// SketchK is the compile-time compression parameter: compaction aims
// for tuple masses of about 2·W/SketchK, giving a rank-error bound of a
// few multiples of 1/SketchK (reported exactly per instance by
// RankError). Sketches only merge with sketches of the same SketchK;
// the serialized form embeds it so decoding rejects a mismatch.
const SketchK = 512

const (
	// sketchBufCap is the insertion buffer: adds batch up and flush
	// into the tuple list in one sorted merge.
	sketchBufCap = SketchK
	// sketchMaxTuples caps the tuple list; crossing it triggers
	// compaction. Together with the buffer this fixes the memory
	// ceiling regardless of horizon.
	sketchMaxTuples = 3 * SketchK
)

// tuple is one summary entry; see the package comment for the
// invariant.
type tuple struct {
	lo int     // smallest original delay folded into this tuple
	v  int     // largest (representative) delay; strictly increasing
	g  float64 // mass attributed to (v_prev, v]
	d  float64 // unattributed mass that may also lie at or below v
}

// bufEntry is one buffered Add.
type bufEntry struct {
	v    int
	bits float64
}

// Sketch implements Summary with O(SketchK) memory. The zero value is
// not ready; use NewSketch.
type Sketch struct {
	tuples   []tuple
	buf      []bufEntry
	batch    []tuple // flush scratch: the sorted, deduplicated buffer
	scratch  []tuple // flush scratch: merge destination, swapped with tuples
	total    float64 // measured bits (sum of all Add weights)
	censored float64
	sumDB    float64 // sum of delay·bits, for the exact Mean
	adds     int     // number of Add calls, for Samples
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{
		tuples:  make([]tuple, 0, sketchMaxTuples+sketchBufCap),
		buf:     make([]bufEntry, 0, sketchBufCap),
		batch:   make([]tuple, 0, sketchBufCap),
		scratch: make([]tuple, 0, sketchMaxTuples+sketchBufCap),
	}
}

// Add records bits of traffic that experienced the given delay.
func (s *Sketch) Add(delay int, bits float64) {
	if bits <= 0 {
		return
	}
	s.buf = append(s.buf, bufEntry{delay, bits})
	s.total += bits
	s.sumDB += float64(delay) * bits
	s.adds++
	if len(s.buf) >= sketchBufCap {
		s.flush()
	}
}

// AddCensored records right-censored volume.
func (s *Sketch) AddCensored(bits float64) { s.censored += bits }

// flush drains the insertion buffer into the tuple list: combine equal
// delays (in insertion order, so the result is deterministic), sort,
// and fold the batch in with the same merge that pools sketches. The
// batch and the merge destination live in scratch buffers reused across
// flushes, so the steady-state Add path never touches the heap (pinned
// by TestTandemRunAllocFloor through the streaming sink).
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	slices.SortStableFunc(s.buf, func(a, b bufEntry) int { return cmp.Compare(a.v, b.v) })
	batch := s.batch[:0]
	for _, e := range s.buf {
		if n := len(batch); n > 0 && batch[n-1].v == e.v {
			batch[n-1].g += e.bits
			continue
		}
		batch = append(batch, tuple{lo: e.v, v: e.v, g: e.bits})
	}
	s.batch = batch
	s.buf = s.buf[:0]
	merged := mergeTuplesInto(s.scratch[:0], s.tuples, batch)
	s.tuples, s.scratch = merged, s.tuples[:0]
	s.compact()
}

// mergeTuples merges two sorted tuple lists over the union of their
// values. Masses at a shared value meet in one commutative addition;
// a value present in only one list inherits uncertainty from the other
// list's straddling successor: its d plus — unless the successor
// provably sits entirely above (lo > v) — its g. Swapping the
// arguments produces bit-identical output.
func mergeTuples(a, b []tuple) []tuple {
	return mergeTuplesInto(make([]tuple, 0, len(a)+len(b)), a, b)
}

// mergeTuplesInto is mergeTuples with a caller-provided destination; out
// must not alias a or b.
func mergeTuplesInto(out, a, b []tuple) []tuple {
	if len(a) == 0 {
		return append(out, b...)
	}
	if len(b) == 0 {
		return append(out, a...)
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].v < b[j].v):
			t := a[i]
			if j < len(b) {
				t.d += b[j].d
				if b[j].lo <= t.v {
					t.d += b[j].g
				}
			}
			out = append(out, t)
			i++
		case i == len(a) || b[j].v < a[i].v:
			t := b[j]
			if i < len(a) {
				t.d += a[i].d
				if a[i].lo <= t.v {
					t.d += a[i].g
				}
			}
			out = append(out, t)
			j++
		default: // same value: masses and uncertainties meet once each
			t := a[i]
			if b[j].lo < t.lo {
				t.lo = b[j].lo
			}
			t.g += b[j].g
			t.d += b[j].d
			out = append(out, t)
			i, j = i+1, j+1
		}
	}
	return out
}

// compact shrinks the tuple list below the capacity by greedily folding
// neighbours left-to-right while the folded tuple's query error
// (g + successor's d) stays under the target 2·W/SketchK. Folding
// (lo1,v1,g1,d1)+(lo2,v2,g2,d2) into (lo1,v2,g1+g2,d2) preserves the
// CDF invariant at v2 exactly, so compaction adds no uncertainty — it
// only widens tuples (costing query resolution, which the threshold
// caps). The threshold doubles if a pass cannot reach the cap (heavy
// spikes), so the size bound is unconditional.
func (s *Sketch) compact() {
	if len(s.tuples) <= sketchMaxTuples {
		return
	}
	th := 2 * s.total / SketchK
	for len(s.tuples) > sketchMaxTuples {
		s.tuples = compactOnce(s.tuples, th)
		th *= 2
	}
}

func compactOnce(ts []tuple, th float64) []tuple {
	k := 0
	for i := 1; i < len(ts); i++ {
		if ts[k].g+ts[i].g+ts[i].d <= th {
			// Keep the min lo: merged lists can hold overlapping
			// [lo, v] intervals, so the right tuple's lo may be the
			// smaller one — dropping it would let a later merge skip
			// mass that in fact lies below its value.
			if ts[i].lo < ts[k].lo {
				ts[k].lo = ts[i].lo
			}
			ts[k].v = ts[i].v
			ts[k].g += ts[i].g
			ts[k].d = ts[i].d
			continue
		}
		k++
		ts[k] = ts[i]
	}
	return ts[:k+1]
}

// MergeFrom pools another sketch into the receiver. Both sides'
// buffers flush first (a semantic no-op), so the merge is a pure
// function of the two tuple lists.
func (s *Sketch) MergeFrom(o Summary) error {
	os, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("measure: cannot merge %s summary into sketch", o.BackendName())
	}
	s.flush()
	os.flush()
	s.tuples = mergeTuples(s.tuples, os.tuples)
	s.total += os.total
	s.censored += os.censored
	s.sumDB += os.sumDB
	s.adds += os.adds
	s.compact()
	return nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() Summary {
	out := &Sketch{
		tuples:   append(make([]tuple, 0, cap(s.tuples)), s.tuples...),
		buf:      append(make([]bufEntry, 0, sketchBufCap), s.buf...),
		batch:    make([]tuple, 0, sketchBufCap),
		scratch:  make([]tuple, 0, sketchMaxTuples+sketchBufCap),
		total:    s.total,
		censored: s.censored,
		sumDB:    s.sumDB,
		adds:     s.adds,
	}
	return out
}

// Quantile returns the smallest tracked delay whose attributed mass
// reaches fraction p, mirroring the exact backend's conservative rule.
// The returned delay brackets between the exact p- and
// (p+RankError())-quantiles of the same sample set.
func (s *Sketch) Quantile(p float64) (int, error) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, ErrNoSamples
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("measure: quantile %g outside [0,1]", p)
	}
	target := p*s.total - 1e-12
	cum := 0.0
	for _, t := range s.tuples {
		cum += t.g
		if cum >= target {
			return t.v, nil
		}
	}
	return s.tuples[len(s.tuples)-1].v, nil
}

// ViolationFraction returns the fraction of observed volume whose
// delay exceeded the bound. Mass not provably at or below the bound
// (widened tuples straddling it) and censored mass count as
// violations, so the estimate is conservative within RankError of the
// exact backend's.
func (s *Sketch) ViolationFraction(bound float64) float64 {
	s.flush()
	total := s.total + s.censored
	if total == 0 {
		return 0
	}
	viol := s.censored
	for _, t := range s.tuples {
		if float64(t.v) > bound {
			viol += t.g
		}
	}
	return viol / total
}

// Max returns the largest measured delay; exact, because compaction
// and merging never drop the rightmost representative.
func (s *Sketch) Max() (int, error) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, ErrNoSamples
	}
	return s.tuples[len(s.tuples)-1].v, nil
}

// Mean returns the bit-weighted mean delay; exact, from a running
// delay·bits accumulator.
func (s *Sketch) Mean() (float64, error) {
	if s.total == 0 {
		return 0, ErrNoSamples
	}
	return s.sumDB / s.total, nil
}

// Samples returns the number of Add calls absorbed and the measured
// volume.
func (s *Sketch) Samples() (n int, bits float64) { return s.adds, s.total }

// TotalBits returns the measured volume.
func (s *Sketch) TotalBits() float64 { return s.total }

// CensoredBits returns the right-censored volume.
func (s *Sketch) CensoredBits() float64 { return s.censored }

// CensoredFraction returns censored / (measured + censored).
func (s *Sketch) CensoredFraction() float64 {
	total := s.total + s.censored
	if total == 0 {
		return 0
	}
	return s.censored / total
}

// CCDF returns (delay, P(W > delay)) pairs, one per tuple, with
// censored mass exceeding every delay — the sketch rendering of the
// exact backend's conservative tail.
func (s *Sketch) CCDF() (delays []float64, probs []float64) {
	s.flush()
	total := s.total + s.censored
	if total == 0 {
		return nil, nil
	}
	above := total
	for _, t := range s.tuples {
		above -= t.g
		delays = append(delays, float64(t.v))
		probs = append(probs, above/total)
	}
	return delays, probs
}

// RankError reports the guaranteed rank-error bound of Quantile on the
// current contents: max over tuples of (d + g·[lo < v]) / W. Tuples
// still covering a single delay answer exactly, so their g does not
// count; an uncompacted sketch (few distinct delays) reports 0.
func (s *Sketch) RankError() float64 {
	s.flush()
	if s.total == 0 {
		return 0
	}
	worst := 0.0
	for _, t := range s.tuples {
		e := t.d
		if t.lo < t.v {
			e += t.g
		}
		if e > worst {
			worst = e
		}
	}
	return worst / s.total
}

// MemoryBytes reports the payload size: 32 bytes per tuple plus 16 per
// buffered add. Bounded by the compile-time caps, so it is O(1) in the
// horizon — the property the long-run memory test pins.
func (s *Sketch) MemoryBytes() int {
	return 32*len(s.tuples) + 16*len(s.buf) + 64
}

// BackendName identifies the sketch backend.
func (s *Sketch) BackendName() string { return "sketch" }
