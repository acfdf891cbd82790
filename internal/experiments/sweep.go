package experiments

import (
	"context"
	"fmt"
)

// SweepPoint is one point of a figure sweep in fully resolved form: a
// deterministic checkpoint ID, the plot coordinate and series it belongs
// to, and the (scheduler, path length, populations) tuple the bound is
// evaluated at. Enumerations are deterministic — the same inputs yield
// the same points in the same order — so point IDs key the resume
// checkpoint and series assembly is reproducible byte for byte.
type SweepPoint struct {
	ID     string    // deterministic identity (checkpoint key)
	X      float64   // plot x-coordinate
	Series string    // series label the point belongs to
	Sched  Scheduler // discipline under evaluation
	H      int       // path length
	N0, Nc float64   // through and per-node cross populations
}

// Example1Points enumerates Fig. 2 (Example 1): delay bound versus total
// utilization at fixed U0 = 15% (N0 = 100), for BMUX, FIFO and EDF
// (d*c = 10·d*0), H ∈ hs. Utilizations below the through load are
// infeasible by construction and excluded up front; if none remain the
// enumeration errors.
func (s Setup) Example1Points(hs []int, utils []float64) ([]SweepPoint, error) {
	const n0 = 100 // the paper's fixed through population (U0 = 15%)
	scheds := []Scheduler{BMUX, FIFO, EDFRatio10}
	var xs []float64 // feasible utilizations, identical for every series
	for _, u := range utils {
		if s.FlowCount(u)-n0 >= 0 {
			xs = append(xs, u)
		}
	}
	if len(xs) == 0 && len(hs) > 0 {
		return nil, fmt.Errorf("experiments: example 1: no feasible points for %v H=%d", scheds[0], hs[0])
	}
	var pts []SweepPoint
	for _, h := range hs {
		for _, sched := range scheds {
			for _, u := range xs {
				pts = append(pts, SweepPoint{
					ID:     pointID("ex1", sched, h, u),
					X:      u * 100,
					Series: fmt.Sprintf("%v H=%d", sched, h),
					Sched:  sched,
					H:      h,
					N0:     n0,
					Nc:     s.FlowCount(u) - n0,
				})
			}
		}
	}
	return pts, nil
}

// Example2Points enumerates Fig. 3 (Example 2): delay bound versus the
// traffic mix Uc/U at fixed total utilization U = 50%, for BMUX, FIFO and
// the two EDF variants, H ∈ hs.
func (s Setup) Example2Points(hs []int, mixes []float64) ([]SweepPoint, error) {
	const util = 0.5
	scheds := []Scheduler{BMUX, FIFO, EDFThroughHalf, EDFThroughDouble}
	total := s.FlowCount(util)
	for _, mix := range mixes {
		if mix < 0 || mix > 1 {
			return nil, fmt.Errorf("experiments: example 2: mix %g outside [0,1]", mix)
		}
	}
	var pts []SweepPoint
	for _, h := range hs {
		for _, sched := range scheds {
			for _, mix := range mixes {
				nc := total * mix
				pts = append(pts, SweepPoint{
					ID:     pointID("ex2", sched, h, mix),
					X:      mix,
					Series: fmt.Sprintf("%v H=%d", sched, h),
					Sched:  sched,
					H:      h,
					N0:     total - nc,
					Nc:     nc,
				})
			}
		}
	}
	return pts, nil
}

// Example3Points enumerates Fig. 4 (Example 3): delay bound versus path
// length H at N0 = Nc, for U ∈ utils, comparing BMUX, FIFO, EDF
// (d*c = 10·d*0) and the additive node-by-node BMUX baseline.
func (s Setup) Example3Points(hs []int, utils []float64) ([]SweepPoint, error) {
	scheds := []Scheduler{BMUX, FIFO, EDFRatio10, BMUXAdditive}
	var pts []SweepPoint
	for _, u := range utils {
		n := s.FlowCount(u) / 2 // N0 = Nc
		for _, sched := range scheds {
			for _, h := range hs {
				pts = append(pts, SweepPoint{
					ID:     pointID("ex3", sched, h, u),
					X:      float64(h),
					Series: fmt.Sprintf("%v U=%g%%", sched, u*100),
					Sched:  sched,
					H:      h,
					N0:     n,
					Nc:     n,
				})
			}
		}
	}
	return pts, nil
}

// EvalPoint computes the delay bound of one sweep point, without
// consulting the checkpoint: the Scheduler/H/N0/Nc tuple fully determines
// the evaluation. Cancellation of the sweep context aborts the inner α
// sweep.
func (s Setup) EvalPoint(ctx context.Context, p SweepPoint) (float64, error) {
	s2 := s
	if ctx != nil {
		s2.Ctx = ctx
	}
	return s2.Bound(p.Sched, p.H, p.N0, p.Nc)
}
