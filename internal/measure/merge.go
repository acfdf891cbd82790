package measure

// This file holds the replication layer: R independent simulation
// replications each produce a Distribution; Merge folds them into one
// pooled distribution for point estimates, and the *CI helpers turn the
// per-replication estimates into Student-t confidence intervals — the
// standard replication/batch-means methodology.

import (
	"fmt"
	"math"
	"sort"
)

// canonical returns an equivalent distribution with one entry per
// distinct delay, delays sorted ascending. Weights sharing a delay are
// summed in stored order and the total is re-accumulated in ascending
// delay order, so the canonical form of a given distribution is a pure
// function of its contents.
func (d Distribution) canonical() Distribution {
	byDelay := make(map[int]float64, len(d.delays))
	keys := make([]int, 0, len(d.delays))
	for i, w := range d.weights {
		k := d.delays[i]
		if _, seen := byDelay[k]; !seen {
			keys = append(keys, k)
		}
		byDelay[k] += w
	}
	sort.Ints(keys)
	out := Distribution{
		delays:   keys,
		weights:  make([]float64, len(keys)),
		censored: d.censored,
	}
	for i, k := range keys {
		out.weights[i] = byDelay[k]
		out.totalBits += out.weights[i]
	}
	return out
}

// Merge pools two delay distributions, as if one simulation had observed
// both sample sets. The result is canonical (sorted distinct delays) and
// Merge(a, b) is bit-identical to Merge(b, a): per-delay weights meet in
// a single commutative addition and the total re-accumulates in delay
// order, so no float ever depends on the argument order. Censored mass
// adds. The receiver and argument are not modified.
func (d Distribution) Merge(o Distribution) Distribution {
	a, b := d.canonical(), o.canonical()
	out := Distribution{
		delays:   make([]int, 0, len(a.delays)+len(b.delays)),
		weights:  make([]float64, 0, len(a.delays)+len(b.delays)),
		censored: a.censored + b.censored,
	}
	i, j := 0, 0
	push := func(delay int, w float64) {
		out.delays = append(out.delays, delay)
		out.weights = append(out.weights, w)
		out.totalBits += w
	}
	for i < len(a.delays) && j < len(b.delays) {
		switch {
		case a.delays[i] < b.delays[j]:
			push(a.delays[i], a.weights[i])
			i++
		case a.delays[i] > b.delays[j]:
			push(b.delays[j], b.weights[j])
			j++
		default:
			push(a.delays[i], a.weights[i]+b.weights[j])
			i, j = i+1, j+1
		}
	}
	for ; i < len(a.delays); i++ {
		push(a.delays[i], a.weights[i])
	}
	for ; j < len(b.delays); j++ {
		push(b.delays[j], b.weights[j])
	}
	return out
}

// CensoredFraction returns the share of observed volume whose delay was
// right-censored by the simulation horizon: censored / (measured +
// censored). Zero when nothing was observed.
func (d Distribution) CensoredFraction() float64 {
	total := d.totalBits + d.censored
	if total == 0 {
		return 0
	}
	return d.censored / total
}

// ErrTooFewReplications indicates a CI request over fewer than two
// replications — a half-width needs at least one degree of freedom.
type errTooFewReplications int

func (e errTooFewReplications) Error() string {
	return fmt.Sprintf("measure: confidence interval needs >= 2 replications, got %d", int(e))
}

// studentT975 is the 0.975 quantile of Student's t distribution (the
// two-sided 95% critical value) for the given degrees of freedom. Values
// above the table step down conservatively: an intermediate df uses the
// next *smaller* tabulated df, never a smaller critical value.
func studentT975(df int) float64 {
	table := []float64{ // df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
	case df < 40:
		return table[len(table)-1]
	case df < 60:
		return 2.021
	case df < 120:
		return 2.000
	default:
		return 1.960
	}
}

// meanHalfWidth reduces per-replication estimates to mean ± Student-t
// 95% half-width: t_{0.975, R−1} · s / √R with s the sample standard
// deviation across replications.
func meanHalfWidth(xs []float64) (mean, half float64, err error) {
	if len(xs) < 2 {
		return 0, 0, errTooFewReplications(len(xs))
	}
	mean = Mean(xs)
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(varSum / float64(len(xs)-1))
	return mean, studentT975(len(xs)-1) * sd / math.Sqrt(float64(len(xs))), nil
}

// QuantileCI estimates the p-quantile of the delay distribution from R
// replications: each replication's empirical quantile is one sample, and
// the returned interval is their mean ± Student-t 95% half-width. At
// least two replications are required; a replication with no samples
// fails the estimate (its quantile is undefined). On the sketch backend
// each per-replication quantile additionally carries that summary's
// rank-error bound — report max RankError alongside the interval.
func QuantileCI(reps []Summary, p float64) (mean, half float64, err error) {
	qs := make([]float64, len(reps))
	for i, d := range reps {
		q, err := d.Quantile(p)
		if err != nil {
			return 0, 0, fmt.Errorf("replication %d: %w", i, err)
		}
		qs[i] = float64(q)
	}
	return meanHalfWidth(qs)
}

// ViolationFractionCI estimates P(W > bound) from R replications: each
// replication's empirical violation fraction (censored mass counting as
// violating, as in ViolationFraction) is one sample, and the returned
// interval is their mean ± Student-t 95% half-width.
func ViolationFractionCI(reps []Summary, bound float64) (mean, half float64, err error) {
	fs := make([]float64, len(reps))
	for i, d := range reps {
		fs[i] = d.ViolationFraction(bound)
	}
	return meanHalfWidth(fs)
}

// MaxRankError returns the largest rank-error bound across summaries —
// the figure to report next to a pooled CI on the sketch backend. Zero
// on the exact backend.
func MaxRankError(ss []Summary) float64 {
	m := 0.0
	for _, s := range ss {
		if e := s.RankError(); e > m {
			m = e
		}
	}
	return m
}
