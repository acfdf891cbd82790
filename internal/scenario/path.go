package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
)

// PathDetail is the Detail payload of the path scenario: the full
// optimizer result plus everything a CLI needs to render the classic
// delaybound report (the Δ constant, the source model, and the optional
// additive baseline).
type PathDetail struct {
	Res   core.Result
	Delta float64
	Src   envelope.MMOO
	// Additive holds the node-by-node baseline when requested; AddErr its
	// failure (an infeasible additive bound is reported, not fatal).
	Additive *core.AdditiveResult
	AddErr   error
}

// checkPath rejects the α-independent inputs of a homogeneous path
// before its α sweep starts. Inside the sweep an error only marks that α
// infeasible, so a bad path length or capacity would otherwise surface
// as "no feasible alpha" instead of as a bad configuration.
func checkPath(h int, c float64) error {
	if h < 1 {
		return fmt.Errorf("%w: -H must be >= 1, got %d", core.ErrBadConfig, h)
	}
	if !(c > 0) || math.IsInf(c, 1) {
		return fmt.Errorf("%w: -C must be positive and finite, got %g", core.ErrBadConfig, c)
	}
	return nil
}

func init() {
	Register(singleScenario{
		info: Info{
			Name: "path",
			Desc: "end-to-end delay bound for a homogeneous Δ-scheduled path (the delaybound flag set)",
			Params: []Param{
				{Name: "H", Kind: "int", Default: "1", Help: "path length (number of nodes)"},
				{Name: "C", Kind: "float", Default: "100", Help: "link capacity per node [kbit/slot]"},
				{Name: "sched", Kind: "string", Default: "fifo", Help: "scheduler: fifo, bmux, sp, edf"},
				{Name: "edf-d0", Kind: "float", Default: "0", Help: "EDF per-node deadline of the through traffic [slots]"},
				{Name: "edf-dc", Kind: "float", Default: "0", Help: "EDF per-node deadline of the cross traffic [slots]"},
				{Name: "n0", Kind: "float", Default: "100", Help: "number of through flows"},
				{Name: "nc", Kind: "float", Default: "100", Help: "number of cross flows per node"},
				{Name: "eps", Kind: "float", Default: "1e-9", Help: "violation probability"},
				{Name: "peak", Kind: "float", Default: "1.5", Help: "MMOO peak emission per slot [kbit]"},
				{Name: "p11", Kind: "float", Default: "0.989", Help: "MMOO P(OFF→OFF)"},
				{Name: "p22", Kind: "float", Default: "0.9", Help: "MMOO P(ON→ON)"},
				{Name: "alpha", Kind: "float", Default: "0", Help: "fix the EBB decay α instead of optimizing it"},
				{Name: "additive", Kind: "bool", Default: "false", Help: "also compute the node-by-node additive bound"},
			},
			Backends: Analytic,
		},
		id: func(cfg Config) string {
			return "path/" + cfg.Str("sched", "fifo") +
				"/h=" + strconv.Itoa(cfg.Int("H", 1)) +
				"/n0=" + strconv.FormatFloat(cfg.Float("n0", 100), 'g', -1, 64) +
				"/nc=" + strconv.FormatFloat(cfg.Float("nc", 100), 'g', -1, 64)
		},
		eval: evalPath,
	})
	Register(singleScenario{
		info: Info{
			Name: "heteropath",
			Desc: "α-optimized bound for a heterogeneous path described by a JSON config file",
			Params: []Param{
				{Name: "config", Kind: "string", Default: "", Help: "JSON file describing the path (see DESIGN.md)"},
			},
			Backends: Analytic,
		},
		id: func(cfg Config) string { return "heteropath/" + cfg.Str("config", "") },
		eval: func(ctx context.Context, cfg Config, _ Backend) (Result, error) {
			pf, err := LoadPathFile(cfg.Str("config", ""))
			if err != nil {
				return Result{}, err
			}
			res, err := HeteroBound(ctx, pf)
			if err != nil {
				return Result{}, err
			}
			return Result{
				Analytic: res.D,
				Extra:    map[string]float64{"gamma": res.Gamma},
				Detail:   HeteroDetail{PF: pf, Res: res},
			}, nil
		},
	})
}

func evalPath(ctx context.Context, cfg Config, _ Backend) (Result, error) {
	src := envelope.MMOO{
		Peak: cfg.Float("peak", 1.5),
		P11:  cfg.Float("p11", 0.989),
		P22:  cfg.Float("p22", 0.9),
	}
	if err := src.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %w", core.ErrBadConfig, err)
	}
	delta, err := flagDelta(cfg)
	if err != nil {
		return Result{}, err
	}
	h := cfg.Int("H", 1)
	c := cfg.Float("C", 100)
	n0 := cfg.Float("n0", 100)
	nc := cfg.Float("nc", 100)
	eps := cfg.Float("eps", 1e-9)
	if err := checkPath(h, c); err != nil {
		return Result{}, err
	}
	if !(n0 >= 0) || math.IsInf(n0, 1) || !(nc >= 0) || math.IsInf(nc, 1) {
		return Result{}, fmt.Errorf("%w: -n0 and -nc must be finite flow counts >= 0, got %g and %g", core.ErrBadConfig, n0, nc)
	}
	if !(eps > 0 && eps < 1) {
		return Result{}, fmt.Errorf("%w: -eps must be in (0,1), got %g", core.ErrBadConfig, eps)
	}
	alpha := cfg.Float("alpha", 0) // 0 optimizes α
	if !(alpha >= 0) || math.IsInf(alpha, 1) {
		return Result{}, fmt.Errorf("%w: -alpha must be positive and finite, or 0 to optimize it, got %g", core.ErrBadConfig, alpha)
	}
	// One effective-bandwidth evaluation per α for both aggregates.
	memo, err := envelope.NewEBMemo(src)
	if err != nil {
		return Result{}, err
	}
	build := func(a float64) (core.PathConfig, error) {
		if err := ctx.Err(); err != nil {
			return core.PathConfig{}, err
		}
		through, err := memo.EBBAggregate(n0, a)
		if err != nil {
			return core.PathConfig{}, err
		}
		cross, err := memo.EBBAggregate(nc, a)
		if err != nil {
			return core.PathConfig{}, err
		}
		return core.PathConfig{H: h, C: c, Through: through, Cross: cross, Delta0c: delta}, nil
	}

	var res core.Result
	if alpha > 0 {
		pc, berr := build(alpha)
		if berr != nil {
			return Result{}, berr
		}
		res, err = core.DelayBoundCtx(ctx, pc, eps)
	} else {
		res, err = core.OptimizeAlphaCtx(ctx, build, eps, 1e-3, 50)
	}
	if err != nil {
		return Result{}, err
	}

	detail := PathDetail{Res: res, Delta: delta, Src: src}
	if cfg.Bool("additive", false) {
		pc, berr := build(res.Bound.Alpha * float64(h+1)) // the α the combined bound used
		if berr != nil {
			return Result{}, berr
		}
		add, aerr := core.AdditiveBoundCtx(ctx, pc, eps)
		if aerr != nil {
			detail.AddErr = aerr
		} else {
			detail.Additive = &add
		}
	}
	out := Result{
		Analytic: res.D,
		Extra:    map[string]float64{"gamma": res.Gamma, "sigma": res.Sigma},
		Detail:   detail,
	}
	if detail.Additive != nil {
		out.Extra["additive_bound_slots"] = detail.Additive.D
	}
	return out, nil
}

// HeteroDetail is the Detail payload of the heteropath scenario.
type HeteroDetail struct {
	PF  PathFile
	Res core.Result
}

// PathFile is the JSON schema for heterogeneous path configurations
// (delaybound -config FILE): per-node capacities, cross populations and
// schedulers, all fed from a shared MMOO source model.
type PathFile struct {
	Eps    float64    `json:"eps"`
	Source SourceSpec `json:"source"`
	// ThroughFlows is the number of MMOO flows in the through aggregate.
	ThroughFlows float64    `json:"throughFlows"`
	Nodes        []PathNode `json:"nodes"`
}

// SourceSpec selects the shared MMOO source model of a PathFile.
type SourceSpec struct {
	Peak float64 `json:"peak"` // kbit per slot
	P11  float64 `json:"p11"`
	P22  float64 `json:"p22"`
}

// PathNode describes one node of a heterogeneous path.
type PathNode struct {
	C          float64 `json:"c"`          // kbit per slot
	CrossFlows float64 `json:"crossFlows"` // MMOO flows joining at this node
	Sched      string  `json:"sched"`      // fifo | bmux | sp | edf
	EDFD0      float64 `json:"edfD0"`      // EDF deadline of the through traffic [slots]
	EDFDc      float64 `json:"edfDc"`      // EDF deadline of the cross traffic [slots]
}

// LoadPathFile reads and validates a configuration file.
func LoadPathFile(path string) (PathFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return PathFile{}, err
	}
	return ParsePathFile(raw)
}

// badField reports a field-level configuration error, naming the JSON
// path of the offending value and tagged core.ErrBadConfig so callers
// can classify it with errors.Is.
func badField(field, format string, args ...any) error {
	return fmt.Errorf("%w: config: %s: %s", core.ErrBadConfig, field, fmt.Sprintf(format, args...))
}

// checkPositive rejects NaN, ±Inf, zero and negative values — none of
// which is a meaningful rate, population, probability or deadline.
func checkPositive(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badField(field, "must be a finite number, got %g", v)
	}
	if v <= 0 {
		return badField(field, "must be positive, got %g", v)
	}
	return nil
}

// ParsePathFile validates a raw JSON path description. Unknown fields
// are rejected so typos fail loudly instead of silently using defaults.
func ParsePathFile(raw []byte) (PathFile, error) {
	var pf PathFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pf); err != nil {
		return PathFile{}, fmt.Errorf("parse config: %w", err)
	}
	if math.IsNaN(pf.Eps) || pf.Eps <= 0 || pf.Eps >= 1 {
		return PathFile{}, badField("eps", "must be in (0,1), got %g", pf.Eps)
	}
	if err := checkPositive("throughFlows", pf.ThroughFlows); err != nil {
		return PathFile{}, err
	}
	if len(pf.Nodes) == 0 {
		return PathFile{}, fmt.Errorf("%w: config: nodes: at least one node is required", core.ErrBadConfig)
	}
	if err := checkPositive("source.peak", pf.Source.Peak); err != nil {
		return PathFile{}, err
	}
	src := pf.MMOO()
	if err := src.Validate(); err != nil {
		return PathFile{}, fmt.Errorf("%w: config: source: %w", core.ErrBadConfig, err)
	}
	for i, n := range pf.Nodes {
		path := fmt.Sprintf("nodes[%d]", i)
		if err := checkPositive(path+".c", n.C); err != nil {
			return PathFile{}, err
		}
		if math.IsNaN(n.CrossFlows) || math.IsInf(n.CrossFlows, 0) {
			return PathFile{}, badField(path+".crossFlows", "must be a finite number, got %g", n.CrossFlows)
		}
		if n.CrossFlows < 0 {
			return PathFile{}, badField(path+".crossFlows", "must be >= 0, got %g", n.CrossFlows)
		}
		if _, err := n.Delta(); err != nil {
			return PathFile{}, fmt.Errorf("%w: config: %s.%w", core.ErrBadConfig, path, err)
		}
	}
	return pf, nil
}

// MMOO returns the configured source model.
func (pf PathFile) MMOO() envelope.MMOO {
	return envelope.MMOO{Peak: pf.Source.Peak, P11: pf.Source.P11, P22: pf.Source.P22}
}

// Delta returns the node's Δ_{0,c} scheduling constant. Its errors
// start with the JSON name of the offending field (sched, edfD0, edfDc).
func (n PathNode) Delta() (float64, error) {
	return schedDelta(n.Sched, n.EDFD0, n.EDFDc, "sched", "edfD0", "edfDc")
}

// flagDelta is PathNode.Delta for the -sched, -edf-d0 and -edf-dc
// parameters of the analytic path scenarios; its errors name the flag.
func flagDelta(cfg Config) (float64, error) {
	delta, err := schedDelta(cfg.Str("sched", "fifo"), cfg.Float("edf-d0", 0), cfg.Float("edf-dc", 0),
		"-sched", "-edf-d0", "-edf-dc")
	if err != nil {
		return 0, fmt.Errorf("%w: %w", core.ErrBadConfig, err)
	}
	return delta, nil
}

// schedDelta is the one table from scheduler name to Δ_{0,c} behind both
// the config file and the path flags; schedName, d0Name and dcName label
// the inputs in its errors. EDF deadlines must be positive and finite: an
// infinite one would price another scheduler's bound (d0 = +Inf is BMUX's
// Δ = +Inf, dc = +Inf SP's).
func schedDelta(sched string, d0, dc float64, schedName, d0Name, dcName string) (float64, error) {
	switch sched {
	case "fifo":
		return 0, nil
	case "bmux":
		return math.Inf(1), nil
	case "sp":
		return math.Inf(-1), nil
	case "edf":
		if !(d0 > 0) || math.IsInf(d0, 1) {
			return 0, fmt.Errorf("%s: must be positive and finite, got %g", d0Name, d0)
		}
		if !(dc > 0) || math.IsInf(dc, 1) {
			return 0, fmt.Errorf("%s: must be positive and finite, got %g", dcName, dc)
		}
		return d0 - dc, nil
	default:
		return 0, fmt.Errorf("%s: unknown scheduler %q", schedName, sched)
	}
}

// HeteroBound computes the α-optimized end-to-end bound for a parsed
// configuration. A cancelled ctx aborts the α sweep.
func HeteroBound(ctx context.Context, pf PathFile) (core.Result, error) {
	src := pf.MMOO()
	// All aggregates on the path share the source model; the memo prices
	// each α once instead of once per node.
	memo, err := envelope.NewEBMemo(src)
	if err != nil {
		return core.Result{}, err
	}
	build := func(alpha float64) (core.HeteroPath, error) {
		if err := ctx.Err(); err != nil {
			return core.HeteroPath{}, err
		}
		through, err := memo.EBBAggregate(pf.ThroughFlows, alpha)
		if err != nil {
			return core.HeteroPath{}, err
		}
		nodes := make([]core.NodeSpec, len(pf.Nodes))
		for i, n := range pf.Nodes {
			cross, err := memo.EBBAggregate(n.CrossFlows, alpha)
			if err != nil {
				return core.HeteroPath{}, err
			}
			delta, err := n.Delta()
			if err != nil {
				return core.HeteroPath{}, err
			}
			nodes[i] = core.NodeSpec{C: n.C, Cross: cross, Delta: delta}
		}
		return core.HeteroPath{Through: through, Nodes: nodes}, nil
	}
	alpha, _, err := core.OptimizeAlphaFunc(func(a float64) (float64, error) {
		p, err := build(a)
		if err != nil {
			return 0, err
		}
		r, err := core.DelayBoundHetero(p, pf.Eps)
		if err != nil {
			return 0, err
		}
		return r.D, nil
	}, 1e-3, 50)
	if err != nil {
		return core.Result{}, err
	}
	p, err := build(alpha)
	if err != nil {
		return core.Result{}, err
	}
	return core.DelayBoundHetero(p, pf.Eps)
}
