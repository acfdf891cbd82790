package sim

import (
	"fmt"
	"math"

	"deltasched/internal/core"
)

// RateLatencySpec is the per-flow service curve β_{Rate, Latency}.
type RateLatencySpec struct {
	Rate    float64
	Latency float64
}

// scedFlow is one flow's service curve and the state of its deadline
// recursion.
type scedFlow struct {
	RateLatencySpec
	cum  float64 // cumulative arrivals A_j
	mini float64 // min_{s <= now} ( s + T − A_j(s)/R )
	slot int     // last slot folded into mini
}

// NewSCED returns SCED (Service Curve Earliest Deadline, Cruz [8] in the
// paper's bibliography), which assigns each flow a rate-latency service
// curve S_j = β_{R_j, T_j} and serves by earliest service-curve deadline:
// the chunk of flow j whose cumulative level reaches x must depart by
//
//	d(x) = min_{s <= a} { s + T_j + (x − A_j(s))/R_j },
//
// the pseudo-inverse of A_j ∗ S_j at x. If Σ_j R_j <= C, SCED guarantees
// every flow its service curve (the SCED schedulability theorem), which
// the tests verify empirically. SCED generalizes EDF (R_j → ∞, T_j = d*_j)
// and illustrates the paper's remark that some schedulers are natively
// specified through service curves rather than Δ constants.
//
// A chunk's deadline — that of its last bit — is fixed when it arrives,
// so SCED is a Precedence executor whose key function carries the
// per-flow service-curve state.
func NewSCED(curves map[core.FlowID]RateLatencySpec) (*Precedence, error) {
	if len(curves) == 0 {
		return nil, fmt.Errorf("sim: SCED needs at least one flow curve")
	}
	flows := make(map[core.FlowID]*scedFlow, len(curves))
	for f, c := range curves {
		if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
			return nil, fmt.Errorf("sim: SCED rate for flow %d must be positive and finite, got %g", f, c.Rate)
		}
		if c.Latency < 0 || math.IsNaN(c.Latency) {
			return nil, fmt.Errorf("sim: SCED latency for flow %d must be >= 0, got %g", f, c.Latency)
		}
		flows[f] = &scedFlow{RateLatencySpec: c, mini: c.Latency}
	}
	return &Precedence{
		name: "SCED",
		keyOf: func(f core.FlowID, slot int, bits float64) (float64, float64) {
			st, ok := flows[f]
			if !ok {
				// Flows without a declared curve default to a pure delay
				// of 0 at rate 1 — dropping the chunk would violate work
				// conservation.
				st = &scedFlow{RateLatencySpec: RateLatencySpec{Rate: 1}}
				flows[f] = st
			}
			// Fold the candidate start points up to this slot into the
			// running minimum (A_j(s) is the cumulative level before slot
			// s's arrivals).
			for st.slot < slot {
				st.slot++
				if cand := float64(st.slot) + st.Latency - st.cum/st.Rate; cand < st.mini {
					st.mini = cand
				}
			}
			st.cum += bits
			return st.mini + st.cum/st.Rate, float64(slot)
		},
	}, nil
}
