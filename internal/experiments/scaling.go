package experiments

import (
	"fmt"
	"math"
)

// GrowthExponent fits d(H) ≈ a·H^b by least squares in log-log space and
// returns the exponent b — the tool used to check the paper's scaling
// claims (Θ(H log H) for network-service-curve bounds, so b slightly
// above 1; O(H³ log H) for additive bounds, so b approaching 3).
// Non-positive or non-finite samples are skipped; at least two valid
// points are required.
func GrowthExponent(hs []int, ds []float64) (float64, error) {
	if len(hs) != len(ds) {
		return 0, fmt.Errorf("experiments: %d path lengths vs %d bounds", len(hs), len(ds))
	}
	var xs, ys []float64
	for i := range hs {
		if hs[i] <= 0 || ds[i] <= 0 || math.IsNaN(ds[i]) || math.IsInf(ds[i], 0) {
			continue
		}
		xs = append(xs, math.Log(float64(hs[i])))
		ys = append(ys, math.Log(ds[i]))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("experiments: need at least two valid points, have %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("experiments: degenerate fit (all H equal)")
	}
	return (n*sxy - sx*sy) / den, nil
}

// ScalingReport summarizes the growth of the network-service-curve bound
// versus the additive baseline at a given utilization.
type ScalingReport struct {
	Util        float64
	Hs          []int
	Network     []float64
	Additive    []float64
	NetworkExp  float64 // fitted growth exponent of the network bound
	AdditiveExp float64 // fitted growth exponent of the additive bound
}

// Scaling computes the report for the given path lengths and utilization
// (BMUX scheduling; the asymptotics are scheduler-independent within the
// Δ class, as the paper's remark in Section IV notes).
func (s Setup) Scaling(hs []int, util float64) (ScalingReport, error) {
	if len(hs) < 2 {
		return ScalingReport{}, fmt.Errorf("experiments: scaling needs at least two path lengths")
	}
	n := s.FlowCount(util) / 2
	rep := ScalingReport{Util: util, Hs: append([]int(nil), hs...)}
	for _, h := range hs {
		net, err := s.Bound(BMUX, h, n, n)
		if err != nil {
			return ScalingReport{}, fmt.Errorf("experiments: network bound at H=%d: %w", h, err)
		}
		add, err := s.Bound(BMUXAdditive, h, n, n)
		if err != nil {
			return ScalingReport{}, fmt.Errorf("experiments: additive bound at H=%d: %w", h, err)
		}
		rep.Network = append(rep.Network, net)
		rep.Additive = append(rep.Additive, add)
	}
	var err error
	if rep.NetworkExp, err = GrowthExponent(hs, rep.Network); err != nil {
		return ScalingReport{}, err
	}
	if rep.AdditiveExp, err = GrowthExponent(hs, rep.Additive); err != nil {
		return ScalingReport{}, err
	}
	return rep, nil
}

// EDFGainReport quantifies the persistence of scheduler differentiation on
// long paths: the ratio of the EDF bound to the BMUX bound as a function
// of H (the paper's concluding observation is that this ratio stays
// clearly below 1, unlike FIFO's).
type EDFGainReport struct {
	Hs        []int
	FIFORatio []float64
	EDFRatio  []float64
}

// EDFGain computes the report at the given utilization.
func (s Setup) EDFGain(hs []int, util float64) (EDFGainReport, error) {
	n := s.FlowCount(util) / 2
	rep := EDFGainReport{Hs: append([]int(nil), hs...)}
	for _, h := range hs {
		bmux, err := s.Bound(BMUX, h, n, n)
		if err != nil {
			return EDFGainReport{}, err
		}
		fifo, err := s.Bound(FIFO, h, n, n)
		if err != nil {
			return EDFGainReport{}, err
		}
		edf, err := s.Bound(EDFRatio10, h, n, n)
		if err != nil {
			return EDFGainReport{}, err
		}
		rep.FIFORatio = append(rep.FIFORatio, fifo/bmux)
		rep.EDFRatio = append(rep.EDFRatio, edf/bmux)
	}
	return rep, nil
}
