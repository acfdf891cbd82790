package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestStartSpanDisabled(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "work")
	if sp != nil {
		t.Fatal("StartSpan without a tracer must return a nil span")
	}
	if ctx != context.Background() {
		t.Error("disabled StartSpan must return the context unchanged")
	}
	// The whole nil-safe surface must be callable without panicking.
	sp.SetAttr("k", 1)
	if c := sp.Child("sub"); c != nil {
		t.Error("nil span's Child must be nil")
	}
	sp.End()
	if SpanFromContext(nil) != nil {
		t.Error("SpanFromContext(nil) must be nil")
	}
	var tr *Tracer
	if tr.Tree() != nil {
		t.Error("nil tracer's Tree must be nil")
	}
	if tr.Dropped() != 0 {
		t.Error("nil tracer's Dropped must be 0")
	}
}

// TestWithoutSpan: the stripped context traces nothing but keeps the
// parent's cancellation, and a context without a span comes back as is.
func TestWithoutSpan(t *testing.T) {
	bg := context.Background()
	if WithoutSpan(bg) != bg {
		t.Error("WithoutSpan must return a span-less context unchanged")
	}
	ctx, cancel := context.WithCancel(bg)
	ctx, root := NewTracer().Root(ctx, "run")
	defer root.End()
	bare := WithoutSpan(ctx)
	if SpanFromContext(bare) != nil {
		t.Fatal("WithoutSpan left a span in the context")
	}
	if _, sp := StartSpan(bare, "work"); sp != nil {
		t.Error("StartSpan under WithoutSpan opened a span")
	}
	cancel()
	if bare.Err() == nil {
		t.Error("WithoutSpan dropped the parent's cancellation")
	}
}

func TestSpanTreeAggregation(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Root(context.Background(), "run")
	for i := 0; i < 3; i++ {
		pctx, p := StartSpan(ctx, "point")
		_, inner := StartSpan(pctx, "DelayBound")
		inner.End()
		p.End()
	}
	root.End()

	tree := tr.Tree()
	if tree == nil {
		t.Fatal("Tree returned nil")
	}
	if tree.Name != "run" || tree.Count != 1 {
		t.Errorf("root = %q count %d, want run/1", tree.Name, tree.Count)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "point" {
		t.Fatalf("children = %+v, want one point node", tree.Children)
	}
	pt := tree.Children[0]
	if pt.Count != 3 {
		t.Errorf("point count = %d, want 3 (aggregated)", pt.Count)
	}
	if len(pt.Children) != 1 || pt.Children[0].Name != "DelayBound" || pt.Children[0].Count != 3 {
		t.Errorf("DelayBound node = %+v", pt.Children)
	}
	if pt.WallSeconds < 0 || pt.MaxWallSeconds > pt.WallSeconds {
		t.Errorf("wall %g max %g inconsistent", pt.WallSeconds, pt.MaxWallSeconds)
	}
}

func TestSpanNameSanitized(t *testing.T) {
	tr := NewTracer()
	_, root := tr.Root(context.Background(), "a/b")
	root.Child("c/d").End()
	root.End()
	tree := tr.Tree()
	if tree.Name != "a_b" {
		t.Errorf("root name = %q, want a_b (slash reserved for paths)", tree.Name)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "c_d" {
		t.Errorf("child = %+v, want c_d", tree.Children)
	}
}

// TestConcurrentChildSpans mirrors the ParMapCtx fan-out: many workers
// concurrently open children of one parent, annotate, and end them.
// Run with -race.
func TestConcurrentChildSpans(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Root(context.Background(), "run")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, sp := StartSpan(ctx, "point")
				sp.SetAttr("worker", w)
				sp.Child("inner").End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	tree := tr.Tree()
	pt := tree.Children[0]
	if pt.Count != workers*perWorker {
		t.Errorf("point count = %d, want %d", pt.Count, workers*perWorker)
	}
	if pt.Children[0].Count != workers*perWorker {
		t.Errorf("inner count = %d, want %d", pt.Children[0].Count, workers*perWorker)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	_, root := tr.Root(context.Background(), "run")
	root.End()
	root.End()
	if tree := tr.Tree(); tree.Count != 1 {
		t.Errorf("double End recorded %d events, want 1", tree.Count)
	}
}

func TestSpanBufferCap(t *testing.T) {
	tr := NewTracer()
	tr.max = 2
	_, root := tr.Root(context.Background(), "run")
	for i := 0; i < 5; i++ {
		root.Child("c").End()
	}
	root.End() // past the cap too
	if got := tr.Dropped(); got != 4 {
		t.Errorf("dropped = %d, want 4 (2 kept of 6)", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Root(context.Background(), "run")
	_, sp := StartSpan(ctx, "point")
	sp.SetAttr("id", "p0")
	sp.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  uint64         `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(out.TraceEvents))
	}
	byName := map[string]bool{}
	for _, ev := range out.TraceEvents {
		byName[ev.Name] = true
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X (complete)", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Errorf("event %q dur = %g, want >= 0", ev.Name, ev.Dur)
		}
	}
	if !byName["run"] || !byName["point"] {
		t.Errorf("events = %v, want run and point", byName)
	}
	for _, ev := range out.TraceEvents {
		if ev.Name == "point" {
			if ev.Args["id"] != "p0" {
				t.Errorf("point args = %v, want id=p0", ev.Args)
			}
		}
	}

	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&buf); err == nil {
		t.Error("nil tracer must refuse to write a trace")
	}
}

func TestWriteChromeTraceFile(t *testing.T) {
	tr := NewTracer()
	_, root := tr.Root(context.Background(), "run")
	root.End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"displayTimeUnit"`) {
		t.Errorf("trace file missing header: %s", raw)
	}
}

func TestCurGoroutineID(t *testing.T) {
	id := curGoroutineID()
	if id == 0 {
		t.Error("goroutine id parsed as 0")
	}
	done := make(chan uint64, 1)
	go func() { done <- curGoroutineID() }()
	if other := <-done; other == id {
		t.Errorf("two goroutines parsed the same id %d", id)
	}
}
