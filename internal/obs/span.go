package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The span tracer is the hierarchical half of the observability layer:
// a run opens a root span, every execution layer underneath opens child
// spans (runner stage → point → DelayBound → innerMinimize), and the
// completed spans are rendered two ways — an aggregated span tree in the
// JSON RunReport, and a Chrome trace_event file (-tracefile) that
// chrome://tracing or Perfetto renders on a timeline.
//
// Design constraints, in order:
//
//   - Disabled tracing costs nothing on hot paths: StartSpan on a context
//     without a tracer is one Value lookup returning a nil *Span, and all
//     *Span methods are nil-safe no-ops, so instrumented code needs no
//     branching beyond what it would write anyway.
//   - Span creation is goroutine-safe: ParMapCtx workers concurrently
//     open children of the same parent. A span's identity (its path) is
//     immutable after creation; mutable state (attributes, the event
//     list) is mutex-protected.
//   - The event buffer is bounded (MaxSpans): a runaway instrumentation
//     site degrades to a dropped-span count, never to unbounded memory.
//
// Span names are LOW-cardinality labels ("point", "DelayBound"); per-item
// identity (point IDs, parameter values) goes into attributes, which show
// up as args in the Chrome trace but are not part of the aggregation key
// of the report's span tree.
type Tracer struct {
	start time.Time
	max   int

	mu      sync.Mutex
	events  []SpanEvent
	dropped int64
}

// DefaultMaxSpans bounds the completed-span buffer of a tracer; spans
// ended past the cap are counted as dropped.
const DefaultMaxSpans = 1 << 18

// NewTracer returns a tracer anchored at the current time.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), max: DefaultMaxSpans}
}

// Attr is one key/value annotation of a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanEvent is one completed span, in tracer-relative time.
type SpanEvent struct {
	Name  string
	Path  string // "/"-joined ancestry, the aggregation key of the report tree
	TID   uint64 // goroutine that opened the span (the Chrome trace lane)
	Start time.Duration
	Wall  time.Duration
	CPU   float64 // process CPU seconds during the span (upper bound under concurrency)
	Attrs []Attr
}

// Span is one open interval of work. A nil *Span is the disabled form:
// every method no-ops, Child returns nil.
type Span struct {
	tracer *Tracer
	name   string
	path   string
	tid    uint64
	start  time.Time
	cpu0   float64

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Root opens the top-level span of a tracer and installs it in the
// context; every StartSpan below inherits from it.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.open(nil, name)
	return ContextWithSpan(ctx, sp), sp
}

// Dropped returns how many spans were discarded at the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *Tracer) open(parent *Span, name string) *Span {
	path := sanitizeSpanName(name)
	if parent != nil {
		path = parent.path + "/" + path
	}
	return &Span{
		tracer: t,
		name:   name,
		path:   path,
		tid:    curGoroutineID(),
		start:  time.Now(),
		cpu0:   processCPUSeconds(),
	}
}

// sanitizeSpanName keeps "/" reserved as the path separator of the
// aggregation tree.
func sanitizeSpanName(name string) string {
	return strings.ReplaceAll(name, "/", "_")
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span as the parent for
// StartSpan calls below it. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// WithoutSpan returns a context that carries no span, so work run under
// it is not traced while ctx's deadline and cancellation still apply.
// A ctx without a span is returned unchanged, so an untraced run does
// not allocate for it.
func WithoutSpan(ctx context.Context) context.Context {
	if SpanFromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, (*Span)(nil))
}

// SpanFromContext returns the current span, or nil when the context
// carries none (tracing disabled).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child. Without a span in the context (tracing
// disabled) it returns ctx unchanged and a nil span, whose methods all
// no-op — the caller needs no branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return ContextWithSpan(ctx, sp), sp
}

// Child opens a sub-span without context plumbing, for call chains that
// thread a *Span directly (the analytic kernels). Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.open(s, name)
}

// SetAttr annotates the span; shows as args in the Chrome trace.
// Nil-safe and goroutine-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span, recording wall and process-CPU time. Nil-safe and
// idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	cpu := processCPUSeconds() - s.cpu0
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	t := s.tracer
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, SpanEvent{
			Name:  s.name,
			Path:  s.path,
			TID:   s.tid,
			Start: s.start.Sub(t.start),
			Wall:  wall,
			CPU:   cpu,
			Attrs: attrs,
		})
	}
	t.mu.Unlock()
}

// SpanNode is one node of the aggregated span tree in the RunReport:
// spans are grouped by their name path, so a sweep's ten thousand
// "point" spans collapse into one node with Count 10000 and summed
// timings. Children are ordered by total wall time, heaviest first.
type SpanNode struct {
	Name           string      `json:"name"`
	Count          int64       `json:"count"`
	WallSeconds    float64     `json:"wall_seconds"`
	CPUSeconds     float64     `json:"cpu_seconds"`
	MaxWallSeconds float64     `json:"max_wall_seconds"`
	Children       []*SpanNode `json:"children,omitempty"`
}

// Tree aggregates the completed spans into a report tree. Open
// (un-ended) spans appear as zero-count structural nodes only when a
// completed descendant references them. Returns nil when nothing ended.
func (t *Tracer) Tree() *SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]SpanEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	if len(events) == 0 {
		return nil
	}

	nodes := make(map[string]*SpanNode)
	var roots []*SpanNode
	ensure := func(path string) *SpanNode {
		if n, ok := nodes[path]; ok {
			return n
		}
		segs := strings.Split(path, "/")
		var parent *SpanNode
		cur := ""
		var node *SpanNode
		for _, seg := range segs {
			if cur == "" {
				cur = seg
			} else {
				cur = cur + "/" + seg
			}
			n, ok := nodes[cur]
			if !ok {
				n = &SpanNode{Name: seg}
				nodes[cur] = n
				if parent == nil {
					roots = append(roots, n)
				} else {
					parent.Children = append(parent.Children, n)
				}
			}
			parent, node = n, n
		}
		return node
	}
	for _, ev := range events {
		n := ensure(ev.Path)
		n.Count++
		n.WallSeconds += ev.Wall.Seconds()
		n.CPUSeconds += ev.CPU
		if w := ev.Wall.Seconds(); w > n.MaxWallSeconds {
			n.MaxWallSeconds = w
		}
	}
	var sortChildren func(n *SpanNode)
	sortChildren = func(n *SpanNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			a, b := n.Children[i], n.Children[j]
			if a.WallSeconds != b.WallSeconds {
				return a.WallSeconds > b.WallSeconds
			}
			return a.Name < b.Name
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	if len(roots) == 1 {
		sortChildren(roots[0])
		return roots[0]
	}
	root := &SpanNode{Name: "(root)", Children: roots}
	sortChildren(root)
	return root
}

// chromeTraceEvent is the Chrome trace_event "complete" (ph=X) record.
type chromeTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Ts   float64        `json:"ts"`  // µs since trace start
	Dur  float64        `json:"dur"` // µs
	Args map[string]any `json:"args,omitempty"`
}

type chromeTraceFile struct {
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
}

// WriteChromeTrace writes the completed spans in Chrome trace_event JSON
// (the chrome://tracing / Perfetto format): one "complete" event per
// span, laned by the goroutine that ran it.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	t.mu.Lock()
	events := make([]SpanEvent, len(t.events))
	copy(events, t.events)
	dropped := t.dropped
	t.mu.Unlock()

	out := chromeTraceFile{
		DisplayTimeUnit: "ms",
		TraceEvents:     make([]chromeTraceEvent, 0, len(events)+1),
	}
	for _, ev := range events {
		ce := chromeTraceEvent{
			Name: ev.Name,
			Cat:  "deltasched",
			Ph:   "X",
			PID:  1,
			TID:  ev.TID,
			Ts:   float64(ev.Start.Nanoseconds()) / 1e3,
			Dur:  float64(ev.Wall.Nanoseconds()) / 1e3,
		}
		if len(ev.Attrs) > 0 || ev.CPU > 0 {
			ce.Args = make(map[string]any, len(ev.Attrs)+1)
			for _, a := range ev.Attrs {
				ce.Args[a.Key] = a.Value
			}
			ce.Args["cpu_seconds"] = ev.CPU
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if dropped > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
			Name: "(dropped spans)", Cat: "deltasched", Ph: "X", PID: 1, TID: 0,
			Args: map[string]any{"count": dropped},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile writes the Chrome trace to a file.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating trace file: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// curGoroutineID parses the goroutine ID from the runtime stack header
// ("goroutine N [running]: ..."). It costs about a microsecond — paid
// once per span, never on untraced paths — and exists only to lane the
// Chrome trace; nothing semantic depends on it.
func curGoroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	const prefix = "goroutine "
	s := buf[:n]
	if len(s) < len(prefix) {
		return 0
	}
	var id uint64
	for _, c := range s[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
