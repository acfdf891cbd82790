package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"
)

// StageTiming is the cost of one named stage of a run: one child of the
// session's root span, summed over its occurrences.
type StageTiming struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
}

// NodeSummary condenses a SimProbe's per-node observations: how much the
// node served, how loaded it ran, and how deep its queues got. Bits and
// capacities are in the simulator's kbit-per-slot units.
type NodeSummary struct {
	Node         int     `json:"node"`
	Samples      int64   `json:"samples"`
	ServedBits   float64 `json:"served_bits"`
	Utilization  float64 `json:"utilization"`   // served bits / offered capacity over the sampled slots
	BusyFraction float64 `json:"busy_fraction"` // sampled slots that transmitted anything
	MeanBacklog  float64 `json:"mean_backlog"`
	MaxBacklog   float64 `json:"max_backlog"`
	MeanQueueLen float64 `json:"mean_queue_len"`
	MaxQueueLen  int     `json:"max_queue_len"`
}

// SweepCount records how far a named sweep got: Done of Total points
// completed. On a clean run Done == Total for every sweep; on an
// interrupted run the gap shows where the work stopped.
type SweepCount struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// RunReport is the JSON artifact of one tool invocation: enough context
// (config, seed, code version) to reproduce the run, and enough
// measurement (stage timings, probe summaries, computed bounds) to diff
// two runs meaningfully. Its clock is the span tree (SetSpans fills the
// totals and the stages from it) and its metrics are the Default
// registry's snapshot (Finalize).
type RunReport struct {
	Tool        string    `json:"tool"`
	Version     string    `json:"version"`
	StartedAt   time.Time `json:"started_at"`
	WallSeconds float64   `json:"wall_seconds"`
	// CPUTimeSupported distinguishes real zero CPU readings from
	// platforms where processCPUSeconds is unavailable (non-unix), so a
	// report full of zero cpu_seconds is not mistaken for free work.
	CPUTimeSupported bool                         `json:"cpu_time_supported"`
	CPUSeconds       float64                      `json:"cpu_seconds"`
	Interrupted      bool                         `json:"interrupted,omitempty"`
	Seed             int64                        `json:"seed,omitempty"`
	Config           map[string]any               `json:"config,omitempty"`
	Stages           []StageTiming                `json:"stages,omitempty"`
	Sweeps           map[string]SweepCount        `json:"sweeps,omitempty"`
	Nodes            []NodeSummary                `json:"nodes,omitempty"`
	Bounds           map[string]float64           `json:"bounds,omitempty"`
	Metrics          map[string]float64           `json:"metrics,omitempty"`
	Histograms       map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans            *SpanNode                    `json:"spans,omitempty"`
	Extra            map[string]any               `json:"extra,omitempty"`

	mu sync.Mutex
}

// NewReport starts a report for the named tool, stamping the code version
// and the start time.
func NewReport(tool string) *RunReport {
	return &RunReport{
		Tool:             tool,
		Version:          buildVersion(),
		StartedAt:        time.Now(),
		CPUTimeSupported: cpuTimeSupported,
	}
}

// SetBound records a named result (delay bounds, violation fractions,
// quantiles). Nil-safe.
func (r *RunReport) SetBound(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.Bounds == nil {
		r.Bounds = make(map[string]float64)
	}
	r.Bounds[name] = v
	r.mu.Unlock()
}

// SetMetric sets a one-off value as an unlabeled gauge of the Default
// registry, so it reaches both the report and /metrics. Commands
// register their gauges with help text instead; this remains for
// perfbench's mirrored command bodies. Nil-safe.
func (r *RunReport) SetMetric(name string, v float64) { Default.Gauge(name, "", nil).Set(v) }

// SetExtra attaches an arbitrary JSON-marshalable payload (figure series,
// ablation tables). Nil-safe.
func (r *RunReport) SetExtra(name string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.Extra == nil {
		r.Extra = make(map[string]any)
	}
	r.Extra[name] = v
	r.mu.Unlock()
}

// SetSpans attaches the aggregated span tree and takes the report's
// clock from it: the totals are the root span's, and the stages are the
// root's children, heaviest first. Nil-safe; a nil tree clears the
// tree, the stages and the totals.
func (r *RunReport) SetSpans(n *SpanNode) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Spans, r.Stages, r.WallSeconds, r.CPUSeconds = n, nil, 0, 0
	if n == nil {
		return
	}
	r.WallSeconds, r.CPUSeconds = n.WallSeconds, n.CPUSeconds
	for _, c := range n.Children {
		r.Stages = append(r.Stages, StageTiming{Name: c.Name, WallSeconds: c.WallSeconds, CPUSeconds: c.CPUSeconds})
	}
}

// SetInterrupted marks the run as cut short by a signal, so a partial
// report is distinguishable from a complete one. Nil-safe.
func (r *RunReport) SetInterrupted() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.Interrupted = true
	r.mu.Unlock()
}

// ObserveSweep records the progress of a named sweep: done of total
// points completed so far. Call it as points finish (it is cheap and
// concurrency-safe) or once at the end; the last observation wins.
// Nil-safe.
func (r *RunReport) ObserveSweep(name string, done, total int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.Sweeps == nil {
		r.Sweeps = make(map[string]SweepCount)
	}
	r.Sweeps[name] = SweepCount{Done: done, Total: total}
	r.mu.Unlock()
}

// Finalize snapshots the Default metrics registry into Metrics and
// Histograms: every registered counter, gauge and histogram lands in
// the report. It is called by WriteFile, and a later call takes a fresh
// snapshot.
func (r *RunReport) Finalize() {
	if r == nil {
		return
	}
	scalars, hists := Default.Snapshot()
	r.mu.Lock()
	r.Metrics, r.Histograms = scalars, hists
	r.mu.Unlock()
}

// WriteFile finalizes the report and writes it as indented JSON.
func (r *RunReport) WriteFile(path string) error {
	if r == nil {
		return fmt.Errorf("obs: nil report")
	}
	r.Finalize()
	r.mu.Lock()
	data, err := json.MarshalIndent(r, "", "  ")
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("obs: marshaling report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ConfigFromFlags snapshots every flag's final value (defaults included)
// of a parsed FlagSet, so the report records the exact configuration.
func ConfigFromFlags(fs *flag.FlagSet) map[string]any {
	if fs == nil {
		return nil
	}
	cfg := make(map[string]any)
	fs.VisitAll(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok {
			cfg[f.Name] = g.Get()
			return
		}
		cfg[f.Name] = f.Value.String()
	})
	return cfg
}

// buildVersion derives a git-describe-style version from the build info
// the Go toolchain embeds in binaries built inside a VCS checkout:
// g<rev12>[-dirty] (<commit time>). Test binaries and `go run` builds may
// carry no VCS stamps; those report "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, at string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			at = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	v := "g" + rev
	if dirty {
		v += "-dirty"
	}
	if at != "" {
		v += " (" + at + ")"
	}
	return v
}
