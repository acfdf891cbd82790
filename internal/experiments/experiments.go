// Package experiments parameterizes the paper's numerical examples
// (Section V): the figure scenarios enumerate their sweep points and
// price them through the functions here, with the exact setup of the
// paper — MMOO sources with P = 1.5 kbit per 1 ms slot, p11 = 0.989,
// p22 = 0.9 (1.5 Mbps peak, ≈0.15 Mbps mean per flow), links of
// C = 100 Mbps = 100 kbit/slot, and end-to-end delay bounds at violation
// probability ε = 10⁻⁹.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
)

// Setup fixes the shared parameters of the paper's examples.
type Setup struct {
	Source   envelope.MMOO // per-flow traffic model
	Capacity float64       // link rate in kbit per slot (100 = 100 Mbps at 1 ms slots)
	Eps      float64       // violation probability
	PerFlow  float64       // nominal per-flow average used in the paper's U ↔ N mapping
	AlphaLo  float64       // α sweep range for the EBB decay parameter
	AlphaHi  float64

	// Ctx, when non-nil, is the context every bound runs under. The α and
	// γ searches check it before every probe, so a cancelled Ctx stops a
	// bound within one γ probe and returns its error; a span in it traces
	// each α sweep and its winning bound. Nil means Background.
	Ctx context.Context
}

// ctx returns the sweep context, defaulting to Background.
func (s Setup) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// PaperSetup returns the configuration used throughout Section V.
func PaperSetup() Setup {
	return Setup{
		Source:   envelope.PaperSource(),
		Capacity: 100,
		Eps:      1e-9,
		PerFlow:  0.15, // the paper equates N flows with U = N·0.15/100
		AlphaLo:  1e-3,
		AlphaHi:  50,
	}
}

// FlowCount translates a utilization into the paper's flow count
// N = U·C/0.15 (fractional counts are fine for the analysis).
func (s Setup) FlowCount(util float64) float64 {
	return util * s.Capacity / s.PerFlow
}

// Scheduler selects the discipline evaluated in an example.
type Scheduler int

// The schedulers compared in the paper's examples.
const (
	BMUX Scheduler = iota + 1
	FIFO
	// EDFRatio10 provisions d*_0 = d_e2e/H and d*_c = 10·d*_0 (Examples 1, 3).
	EDFRatio10
	// EDFThroughHalf is Example 2's d*_0 = d*_c/2 (through favoured).
	EDFThroughHalf
	// EDFThroughDouble is Example 2's d*_0 = 2·d*_c (through penalized).
	EDFThroughDouble
	// BMUXAdditive is the node-by-node baseline of Example 3.
	BMUXAdditive
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case BMUX:
		return "BMUX"
	case FIFO:
		return "FIFO"
	case EDFRatio10:
		return "EDF (d*c=10·d*0)"
	case EDFThroughHalf:
		return "EDF (d*0=d*c/2)"
	case EDFThroughDouble:
		return "EDF (d*0=2·d*c)"
	case BMUXAdditive:
		return "BMUX additive"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// key is the scheduler's stable checkpoint identifier. Unlike String it
// must never change: checkpoint files written by one build must resume
// under the next.
func (s Scheduler) key() string {
	switch s {
	case BMUX:
		return "bmux"
	case FIFO:
		return "fifo"
	case EDFRatio10:
		return "edf10"
	case EDFThroughHalf:
		return "edfhalf"
	case EDFThroughDouble:
		return "edfdouble"
	case BMUXAdditive:
		return "bmuxadd"
	default:
		return fmt.Sprintf("sched%d", int(s))
	}
}

// pointID names one sweep point deterministically: example, scheduler,
// path length, and the sweep coordinate in exact decimal form. These IDs
// key the resume checkpoint, so their format is part of the on-disk
// contract.
func pointID(example string, sched Scheduler, h int, x float64) string {
	return example + "/" + sched.key() + "/h=" + strconv.Itoa(h) +
		"/x=" + strconv.FormatFloat(x, 'g', -1, 64)
}

// DeadlineRatio returns, for the EDF variants, the deadline multiplier
// r = d*_c / d*_0 of the provisioning rule, and whether the scheduler is
// an EDF variant at all. The simulation backend uses it to derive
// concrete per-node deadlines from a computed end-to-end bound D:
// d*_0 = D/H, d*_c = r·d*_0 — the same provisioning the analytic
// EDFProvisioned bound uses.
func (s Scheduler) DeadlineRatio() (ratio float64, isEDF bool) {
	switch s {
	case EDFRatio10:
		return 10, true
	case EDFThroughHalf:
		return 2, true // d*_c = 2·d*_0
	case EDFThroughDouble:
		return 0.5, true // d*_c = d*_0/2
	default:
		return 0, false
	}
}

// TrafficModel abstracts a source whose aggregates have an EBB description
// at every decay parameter: both the paper's two-state MMOO and the
// general MarkovSource satisfy it, so every sweep in this package runs on
// either.
type TrafficModel interface {
	EBBAggregate(n, alpha float64) (envelope.EBB, error)
}

// Bound computes the end-to-end delay bound in slots (= ms) for the given
// scheduler over H nodes with n0 through and nc cross flows, optimizing
// both the rate slack γ and the EBB decay α.
func (s Setup) Bound(sched Scheduler, h int, n0, nc float64) (float64, error) {
	return s.BoundModel(s.Source, sched, h, n0, nc)
}

// Path is the one description of a homogeneous path: it maps an EBB
// decay α to the H-node path on links of s.Capacity that carries the n0
// through flows of model and, at every node, nc cross flows of the same
// model, scheduled with the constant Δ_{0,c} = delta.
func (s Setup) Path(model TrafficModel, h int, n0, nc, delta float64) func(alpha float64) (core.PathConfig, error) {
	return func(alpha float64) (core.PathConfig, error) {
		through, err := model.EBBAggregate(n0, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		cross, err := model.EBBAggregate(nc, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		return core.PathConfig{H: h, C: s.Capacity, Through: through, Cross: cross, Delta0c: delta}, nil
	}
}

// pathWinner is the payload of PathBound's α sweep: one α's bound and
// the path it was priced on.
type pathWinner struct {
	res core.Result
	cfg core.PathConfig
}

// PathBound is the γ- and α-optimized bound of the fixed-Δ path that
// Path describes, swept over [s.AlphaLo, s.AlphaHi]: the winning Result
// and the PathConfig, at the winning α, it was priced on. Inside the
// sweep an error only marks one α infeasible, so H < 1 and a nil model
// are rejected before it starts.
func (s Setup) PathBound(model TrafficModel, h int, n0, nc, delta float64) (core.Result, core.PathConfig, error) {
	if err := checkPath(model, h); err != nil {
		return core.Result{}, core.PathConfig{}, err
	}
	build := s.Path(model, h, n0, nc, delta)
	_, w, err := core.OptimizeAlphaFunc(s.ctx(), func(ctx context.Context, alpha float64) (float64, pathWinner, error) {
		cfg, err := build(alpha)
		if err != nil {
			return 0, pathWinner{}, err
		}
		res, err := core.DelayBoundCtx(ctx, cfg, s.Eps)
		return res.D, pathWinner{res, cfg}, err
	}, s.AlphaLo, s.AlphaHi)
	return w.res, w.cfg, err
}

// checkPath rejects the inputs no α can make feasible.
func checkPath(model TrafficModel, h int) error {
	if h < 1 {
		return fmt.Errorf("%w: H must be >= 1, got %d", core.ErrBadConfig, h)
	}
	if model == nil {
		return fmt.Errorf("%w: nil traffic model", core.ErrBadConfig)
	}
	return nil
}

// BoundModel is Bound for an arbitrary traffic model (extension beyond the
// paper's two-state sources). Every scheduler is priced through one α
// sweep that keeps only the bound value.
func (s Setup) BoundModel(model TrafficModel, sched Scheduler, h int, n0, nc float64) (float64, error) {
	if err := checkPath(model, h); err != nil {
		return 0, err
	}
	// price is the bound of the scheduler at one α: BMUX and FIFO are
	// one fixed Δ, EDF solves its provisioning fixed point, the additive
	// baseline runs its node-by-node γ search. The last two ignore the
	// path's Δ.
	var price func(ctx context.Context, cfg core.PathConfig) (float64, error)
	delta := 0.0
	switch sched {
	case BMUX, FIFO:
		if sched == BMUX {
			delta = math.Inf(1)
		}
		var sc core.Scratch // shared by the sweep's probes, which keep only D
		price = func(ctx context.Context, cfg core.PathConfig) (float64, error) {
			res, err := sc.DelayBound(ctx, cfg, s.Eps)
			return res.D, err
		}
	case BMUXAdditive:
		price = func(ctx context.Context, cfg core.PathConfig) (float64, error) {
			res, err := core.AdditiveBoundCtx(ctx, cfg, s.Eps)
			return res.D, err
		}
	default:
		ratio, isEDF := sched.DeadlineRatio()
		if !isEDF {
			return 0, fmt.Errorf("%w: unknown scheduler %v", core.ErrBadConfig, sched)
		}
		price = func(ctx context.Context, cfg core.PathConfig) (float64, error) {
			res, _, err := core.EDFProvisionedCtx(ctx, cfg, s.Eps, ratio)
			return res.D, err
		}
	}
	build := s.Path(model, h, n0, nc, delta)
	_, d, err := core.OptimizeAlphaFunc(s.ctx(), func(ctx context.Context, alpha float64) (float64, float64, error) {
		cfg, err := build(alpha)
		if err != nil {
			return 0, 0, err
		}
		d, err := price(ctx, cfg)
		return d, d, err
	}, s.AlphaLo, s.AlphaHi)
	return d, err
}
