package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry names and owns metrics. Counter/Gauge/Histogram return the
// registered instance for a (name, labels) pair, creating it on first
// use and handing back the same instance afterwards, so call sites can
// re-resolve instead of plumbing pointers. The registry renders itself
// as Prometheus text exposition (WritePrometheus — the surface a
// /metrics endpoint mounts) and snapshots into the JSON RunReport.
//
// Registration takes a mutex; it happens at setup or first use, never
// per-observation — the returned Counter/Gauge/Histogram instances are
// the lock-free hot path.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*metricFamily
}

// Default is the process-wide registry: the CLIs' -metrics-addr endpoint
// exposes it and every RunReport snapshots it at Finalize.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*metricFamily)}
}

// Labels attach dimensions to a metric instance; rendered sorted by key
// in the exposition and snapshot names.
type Labels map[string]string

type metricFamily struct {
	name, help, kind string
	bounds           []float64 // histograms only
	insts            map[string]*metricInstance
}

type metricInstance struct {
	labelStr string // `{k="v",…}` or ""
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// Counter returns the registered counter, creating it on first use.
// Labels may be nil. Requesting an existing name as a different metric
// kind panics: that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.instance(name, help, "counter", nil, labels).counter
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.instance(name, help, "gauge", nil, labels).gauge
}

// Histogram returns the registered histogram, creating it on first use
// with the given bucket upper bounds. Re-requesting with different
// bounds panics (bucket layouts must agree for merges and exposition).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return r.instance(name, help, "histogram", bounds, labels).hist
}

// instance returns the (name, labels) instance, creating the family, the
// instance and its instrument on first use. The instrument is created
// under r.mu, so concurrent first callers all receive the same one.
func (r *Registry) instance(name, help, kind string, bounds []float64, labels Labels) *metricInstance {
	if r == nil {
		panic("obs: nil registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.fams[name]
	if !ok {
		fam = &metricFamily{
			name: name, help: help, kind: kind,
			bounds: append([]float64(nil), bounds...),
			insts:  make(map[string]*metricInstance),
		}
		r.fams[name] = fam
	} else {
		if fam.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s", name, fam.kind, kind))
		}
		if kind == "histogram" && !equalBounds(fam.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
	}
	key := renderLabels(labels)
	inst, ok := fam.insts[key]
	if !ok {
		inst = &metricInstance{labelStr: key}
		switch kind {
		case "counter":
			inst.counter = &Counter{}
		case "gauge":
			inst.gauge = &Gauge{}
		case "histogram":
			h, err := NewHistogram(bounds)
			if err != nil {
				panic(fmt.Sprintf("obs: histogram %q: %v", name, err))
			}
			inst.hist = h
		}
		fam.insts[key] = inst
	}
	return inst
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// renderLabels produces the stable `{k="v",…}` suffix, keys sorted,
// values escaped per the Prometheus text format. Empty labels render as
// "".
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// withExtraLabel splices an extra label (histogram le) into a rendered
// label string.
func withExtraLabel(labelStr, key, value string) string {
	extra := key + `="` + value + `"`
	if labelStr == "" {
		return "{" + extra + "}"
	}
	return labelStr[:len(labelStr)-1] + "," + extra + "}"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP/# TYPE headers, families sorted by
// name, instances sorted by label string, histograms with cumulative
// le-buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: nil registry")
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	type instView struct {
		labelStr string
		counter  int64
		gauge    float64
		hist     HistogramSnapshot
	}
	type famView struct {
		name, help, kind string
		insts            []instView
	}
	fams := make([]famView, 0, len(names))
	for _, name := range names {
		fam := r.fams[name]
		fv := famView{name: fam.name, help: fam.help, kind: fam.kind}
		keys := make([]string, 0, len(fam.insts))
		for k := range fam.insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			inst := fam.insts[k]
			iv := instView{labelStr: inst.labelStr}
			switch fam.kind {
			case "counter":
				iv.counter = inst.counter.Load()
			case "gauge":
				iv.gauge = inst.gauge.Load()
			case "histogram":
				iv.hist = inst.hist.Snapshot()
			}
			fv.insts = append(fv.insts, iv)
		}
		fams = append(fams, fv)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, fam := range fams {
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, fam.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, inst := range fam.insts {
			switch fam.kind {
			case "counter":
				fmt.Fprintf(&b, "%s%s %d\n", fam.name, inst.labelStr, inst.counter)
			case "gauge":
				fmt.Fprintf(&b, "%s%s %s\n", fam.name, inst.labelStr, fmtFloat(inst.gauge))
			case "histogram":
				cum := int64(0)
				for i, bound := range inst.hist.Bounds {
					cum += inst.hist.Counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						fam.name, withExtraLabel(inst.labelStr, "le", fmtFloat(bound)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					fam.name, withExtraLabel(inst.labelStr, "le", "+Inf"), inst.hist.Count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", fam.name, inst.labelStr, fmtFloat(inst.hist.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", fam.name, inst.labelStr, inst.hist.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus renders the Default registry.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// Snapshot captures every registered metric: counters and gauges as a
// flat name+labels → value map, histograms separately. Nil maps are
// returned as nil when the registry is empty, so snapshotting an unused
// registry adds nothing to a report.
func (r *Registry) Snapshot() (scalars map[string]float64, hists map[string]HistogramSnapshot) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, fam := range r.fams {
		for _, inst := range fam.insts {
			key := name + inst.labelStr
			switch fam.kind {
			case "counter":
				if scalars == nil {
					scalars = make(map[string]float64)
				}
				scalars[key] = float64(inst.counter.Load())
			case "gauge":
				if scalars == nil {
					scalars = make(map[string]float64)
				}
				scalars[key] = inst.gauge.Load()
			case "histogram":
				if hists == nil {
					hists = make(map[string]HistogramSnapshot)
				}
				hists[key] = inst.hist.Snapshot()
			}
		}
	}
	return scalars, hists
}

var expvarOnce sync.Once

// PublishExpvar exposes the Default registry under the expvar variable
// "deltasched_metrics" (visible at /debug/vars of the -metrics-addr
// server and of any process importing net/http/pprof). Idempotent —
// expvar panics on duplicate names, so the publication is once-guarded.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("deltasched_metrics", expvar.Func(func() any {
			scalars, hists := Default.Snapshot()
			return map[string]any{"scalars": scalars, "histograms": hists}
		}))
	})
}
