package experiments

import (
	"fmt"
	"math"

	"deltasched/internal/plot"
)

// RegionSpec describes a two-class admissible-region computation on a
// single link: class 1 and class 2 MMOO populations with per-node delay
// requirements d1 and d2 (slots), at violation probability Eps.
type RegionSpec struct {
	Capacity float64
	D1, D2   float64
}

// AdmissibleRegion computes, for each class-1 population in n1s, the
// largest class-2 population such that *both* classes meet their delay
// requirements, under three disciplines:
//
//   - EDF with deadlines (d1, d2) — the Δ-matrix Δ_{j,k} = d_j − d_k,
//   - FIFO — Δ = 0 in both directions,
//   - SP — class 1 (the tighter deadline) strictly prioritized.
//
// This is the statistical counterpart of the deterministic admission
// example (examples/admission), built on the path solver at H = 1
// (Setup.PathBound). It also exposes an instructive single-node fact of
// the paper's framework: with the *linear* statistical envelopes of Eq. (2),
// a finite negative Δ does not improve the favoured class's bound at one
// node (it stays σ/C, same as FIFO — compare the paper's Fig. 4, where
// EDF and FIFO coincide at H=1); only full exclusion (Δ=−∞, strict
// priority) shrinks σ itself. EDF's advantage over FIFO materializes on
// multi-node paths through the θ-optimization, not at a single hop.
func (s Setup) AdmissibleRegion(spec RegionSpec, n1s []float64) ([]plot.Series, error) {
	if spec.Capacity <= 0 || spec.D1 <= 0 || spec.D2 <= 0 {
		return nil, fmt.Errorf("experiments: invalid region spec %+v", spec)
	}
	// feasible reports whether (n1, n2) meets both requirements when
	// class 1 sees class 2 under Δ = delta1 and class 2 sees class 1 under
	// delta2, each class priced as the through traffic of a one-hop path
	// on the link. A failed sweep means infeasible; a cancelled context is
	// returned as its error.
	link := s
	link.Capacity = spec.Capacity
	feasible := func(n1, n2, delta1, delta2 float64) (bool, error) {
		for _, c := range [2]struct{ nT, nX, delta, req float64 }{
			{n1, n2, delta1, spec.D1},
			{n2, n1, delta2, spec.D2},
		} {
			r, _, err := link.PathBound(s.Source, 1, c.nT, c.nX, c.delta)
			if cerr := s.ctx().Err(); cerr != nil {
				return false, cerr
			}
			if err != nil || !(r.D <= c.req) {
				return false, nil
			}
		}
		return true, nil
	}

	discs := []struct {
		name           string
		delta1, delta2 float64
	}{
		{"EDF", spec.D1 - spec.D2, spec.D2 - spec.D1},
		{"FIFO", 0, 0},
		{"SP (class 1 high)", math.Inf(-1), math.Inf(1)},
	}

	mean := s.Source.MeanRate()
	nMax := spec.Capacity / mean // stability ceiling on any single class
	var out []plot.Series
	for _, d := range discs {
		ser := plot.Series{Label: d.name}
		for _, n1 := range n1s {
			if n1 < 0 {
				return nil, fmt.Errorf("experiments: negative class-1 population %g", n1)
			}
			// Largest feasible n2 by bisection (0 admissible or nothing is).
			ok, err := feasible(n1, 0, d.delta1, d.delta2)
			if err != nil {
				return nil, err
			}
			if !ok {
				ser.X = append(ser.X, n1)
				ser.Y = append(ser.Y, math.NaN())
				continue
			}
			lo, hi := 0.0, nMax
			for i := 0; i < 30; i++ {
				mid := (lo + hi) / 2
				ok, err := feasible(n1, mid, d.delta1, d.delta2)
				if err != nil {
					return nil, err
				}
				if ok {
					lo = mid
				} else {
					hi = mid
				}
			}
			ser.X = append(ser.X, n1)
			ser.Y = append(ser.Y, lo)
		}
		out = append(out, ser)
	}
	return out, nil
}
