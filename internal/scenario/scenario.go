// Package scenario is the catalog layer between the analysis engines and
// the CLIs: every workload this repository can run — the paper's figures,
// the design ablations, the heterogeneous-path bound, the simulator
// validation — is a registered Scenario with a name, a parameter schema,
// a deterministic point enumeration, and an Evaluate function. The
// shared runner (internal/runner) executes any registered scenario
// against the analytic engine (internal/core), the discrete-time
// simulator (internal/sim), or both, so a new workload is a registration
// rather than a new main.go.
package scenario

import (
	"context"
	"fmt"
	"maps"
	"reflect"

	"deltasched/internal/core"
	"deltasched/internal/plot"
)

// Backend selects the evaluation engine(s) a scenario point runs
// against. It is a bit set: Both = Analytic | Sim.
type Backend int

const (
	// Analytic evaluates points with the paper's network-calculus bounds
	// (internal/core).
	Analytic Backend = 1 << iota
	// Sim evaluates points empirically with the discrete-time simulator
	// (internal/sim), reusing per-node probes for node-level summaries.
	Sim
)

// Both runs the analytic bound and the simulator on the same points, for
// bound-versus-empirical comparisons.
const Both = Analytic | Sim

// ParseBackend maps the -backend flag values analytic|sim|both.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "analytic":
		return Analytic, nil
	case "sim":
		return Sim, nil
	case "both":
		return Both, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want analytic, sim or both)", s)
	}
}

// String renders the flag spelling of a backend set.
func (b Backend) String() string {
	switch b {
	case Analytic:
		return "analytic"
	case Sim:
		return "sim"
	case Both:
		return "both"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Has reports whether every engine in x is enabled in b.
func (b Backend) Has(x Backend) bool { return b&x == x }

// Param is one run parameter of a scenario and its only description:
// the Config key and flag name (runner.App.Flags), the default, whose
// Go type (int, int64, float64, bool or string) is the parameter's
// type, and the help text.
type Param struct {
	Name    string
	Default any
	Help    string
}

// Config carries a scenario's parameter values, keyed by Param name.
// The registry resolves it against the scenario's Params (Info.Resolve)
// before Points or Evaluate sees it, so the typed getters read values
// that are present; a name outside the schema reads as the zero value.
// The "_progress" key is reserved for the runner, which injects a
// progress callback for long single-point evaluations.
type Config map[string]any

// reserved Config key for the runner-injected progress callback.
const progressKey = "_progress"

// param reads the named value as a T; a missing name reads as T's zero
// value. A present value of another Go type panics: Resolve fails such a
// Config before any scenario reads it, so only a getter of the wrong
// type for its Param gets here.
func param[T any](c Config, name string) T {
	v, ok := c[name]
	if !ok {
		var zero T
		return zero
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("scenario: parameter %q holds a %T, read as a %T", name, v, t))
	}
	return t
}

// Float returns the named float64 parameter.
func (c Config) Float(name string) float64 { return param[float64](c, name) }

// Int returns the named int parameter.
func (c Config) Int(name string) int { return param[int](c, name) }

// Int64 returns the named int64 parameter.
func (c Config) Int64(name string) int64 { return param[int64](c, name) }

// Bool returns the named bool parameter.
func (c Config) Bool(name string) bool { return param[bool](c, name) }

// Str returns the named string parameter.
func (c Config) Str(name string) string { return param[string](c, name) }

// With returns a copy of the config with one key set. The original
// config is not modified, so callers can layer run-time values (the
// runner's replication flags) over a CLI-built config.
func (c Config) With(key string, v any) Config {
	out := make(Config, len(c)+1)
	for k, val := range c {
		out[k] = val
	}
	out[key] = v
	return out
}

// WithProgress returns a copy of the config carrying a progress callback
// for Evaluate implementations that report fine-grained progress (the
// tandem simulation's slot loop). The original config is not modified.
func (c Config) WithProgress(fn func(done, total int)) Config {
	return c.With(progressKey, fn)
}

// Progress returns the runner-injected progress callback, or nil.
func (c Config) Progress() func(done, total int) {
	fn, _ := c[progressKey].(func(done, total int))
	return fn
}

// Point is one unit of work of a scenario run. The ID is deterministic —
// the same scenario and config always enumerate the same IDs in the same
// order — so it keys the resume checkpoint and makes re-runs comparable.
// X and Series place the point in a figure; Data is a scenario-private
// payload carrying whatever Evaluate needs beyond the ID.
type Point struct {
	ID     string
	X      float64
	Series string
	Data   any
}

// Result is the outcome of evaluating one point. Analytic is the delay
// bound in slots (NaN when the analytic engine did not run or the point
// is infeasible); Sim carries named empirical metrics when the simulator
// ran; Detail is a scenario-specific payload for rich CLI formatting.
type Result struct {
	Analytic float64
	Sim      map[string]float64
	Detail   any
}

// Info is a scenario's registry card.
type Info struct {
	Name     string
	Desc     string
	Params   []Param
	Backends Backend
	// Sweep marks multi-point scalar sweeps: per-point results are a
	// single float64, infeasible points are legitimate NaN data points,
	// and completed points may be checkpointed and resumed. Single-shot
	// scenarios (and scenarios with structured results) leave it false so
	// infeasibility propagates as an error and resume never serves a
	// stripped result.
	Sweep bool
}

// Resolve checks cfg against the parameter schema: a missing parameter
// takes its default, and a value of another Go type than its default
// fails as core.ErrBadConfig. Other keys pass through. A complete cfg
// comes back as is; otherwise one copy takes the defaults, so the
// caller's map, which concurrent points share, is never written.
func (in Info) Resolve(cfg Config) (Config, error) {
	out, copied := cfg, false
	for _, p := range in.Params {
		v, ok := cfg[p.Name]
		switch {
		case !ok:
			if !copied {
				out, copied = make(Config, len(cfg)+len(in.Params)), true
				maps.Copy(out, cfg)
			}
			out[p.Name] = p.Default
		case reflect.TypeOf(v) != reflect.TypeOf(p.Default):
			return nil, fmt.Errorf("%w: scenario %s: parameter %q is %T, want %T",
				core.ErrBadConfig, in.Name, p.Name, v, p.Default)
		}
	}
	return out, nil
}

// Scenario is one registered workload.
type Scenario interface {
	// Info returns the registry card (name, parameter schema, backends).
	Info() Info
	// Points enumerates the work deterministically for a config.
	Points(cfg Config) ([]Point, error)
	// Evaluate computes one point against the selected backend(s).
	Evaluate(ctx context.Context, cfg Config, pt Point, be Backend) (Result, error)
}

// IDs projects the deterministic point IDs of an enumerated point set,
// in enumeration order. Shard partitioning and fragment merging key on
// this slice: because Points is deterministic for a config, every
// process that enumerates the same scenario with the same flags derives
// the same ID universe.
func IDs(pts []Point) []string {
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	return ids
}

// Collect groups evaluated points into plot series by their Series
// label, preserving first-appearance order and per-series point order.
// The Y values are the analytic bounds.
func Collect(pts []Point, rs []Result) []plot.Series {
	var out []plot.Series
	index := make(map[string]int)
	for i, p := range pts {
		j, ok := index[p.Series]
		if !ok {
			j = len(out)
			index[p.Series] = j
			out = append(out, plot.Series{Label: p.Series})
		}
		out[j].X = append(out[j].X, p.X)
		out[j].Y = append(out[j].Y, rs[i].Analytic)
	}
	return out
}
