// Package core implements the paper's two contributions: statistical
// leftover service curves for the class of Δ-scheduling algorithms
// (Theorem 1), the tight schedulability condition they induce (Theorem 2,
// Eq. 24), and the end-to-end delay analysis over a path of Δ-scheduled
// nodes (Section IV) with the explicit solution of its optimization
// problem (Eqs. 38–44).
//
// A Δ-scheduler (Definition 1) is a work-conserving, locally-FIFO link
// scheduler for which constants Δ_{j,k} exist such that an arrival of flow
// j at time t has precedence over all arrivals of flow k after t+Δ_{j,k}.
// FIFO, static priority (and its worst case, blind multiplexing) and EDF
// are Δ-schedulers; GPS is not, because the set of backlogged flows — and
// hence precedence — is random (see internal/sim for an executable GPS).
package core

import (
	"math"
)

// FlowID identifies a flow (or flow aggregate) at a node.
type FlowID int

// Policy describes a Δ-scheduling algorithm through its precedence
// constants. Implementations must be locally FIFO: Delta(j, j) == 0.
type Policy interface {
	// Name returns a short human-readable identifier ("FIFO", "EDF", ...).
	Name() string
	// Delta returns Δ_{j,k}: an arrival of flow j at time t has precedence
	// over every arrival of flow k after t + Δ_{j,k}. The value may be
	// −Inf (k never has precedence over j — j is strictly prioritized) or
	// +Inf (all of k's traffic has precedence over j).
	Delta(j, k FlowID) float64
}

// FIFO is first-in-first-out scheduling: Δ_{j,k} = 0 for all j, k.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Delta implements Policy.
func (FIFO) Delta(j, k FlowID) float64 { return 0 }

// StaticPriority assigns each flow a priority level; higher values win.
// Ties are served FIFO. Flows absent from the map default to level 0.
type StaticPriority struct {
	Level map[FlowID]int
}

// Name implements Policy.
func (StaticPriority) Name() string { return "SP" }

// Delta implements Policy: −∞ when k has strictly lower priority than j,
// 0 at equal priority (FIFO among peers), +∞ when k has higher priority.
func (p StaticPriority) Delta(j, k FlowID) float64 {
	lj, lk := p.Level[j], p.Level[k]
	switch {
	case lk < lj:
		return math.Inf(-1)
	case lk > lj:
		return math.Inf(1)
	default:
		return 0
	}
}

// BMUX is blind multiplexing with respect to a designated low-priority
// flow: that flow yields to all other traffic (Δ_{low,k} = +∞ for k≠low),
// while all other flows are mutually FIFO and strictly precede the low
// flow. BMUX delay bounds upper-bound those of every work-conserving
// locally-FIFO scheduler, which makes it the paper's reference point.
type BMUX struct {
	Low FlowID
}

// Name implements Policy.
func (BMUX) Name() string { return "BMUX" }

// Delta implements Policy.
func (b BMUX) Delta(j, k FlowID) float64 {
	switch {
	case j == k:
		return 0
	case j == b.Low:
		return math.Inf(1)
	case k == b.Low:
		return math.Inf(-1)
	default:
		return 0
	}
}

// EDF is earliest-deadline-first scheduling: flow k's arrivals carry the a
// priori delay constraint Deadline[k], and traffic is served in order of
// increasing (arrival + deadline), so Δ_{j,k} = d*_j − d*_k.
type EDF struct {
	Deadline map[FlowID]float64
}

// Name implements Policy.
func (EDF) Name() string { return "EDF" }

// Delta implements Policy.
func (e EDF) Delta(j, k FlowID) float64 {
	return e.Deadline[j] - e.Deadline[k]
}

// DeltaClamped returns Δ_{j,k}(y) = min(Δ_{j,k}, y) (paper Eq. (7)): with
// respect to a tagged flow-j arrival still in the system y time units
// later, higher-precedence flow-k traffic must have arrived by t + Δ(y).
func DeltaClamped(delta, y float64) float64 {
	return math.Min(delta, y)
}
