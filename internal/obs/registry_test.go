package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	h, err := NewHistogram([]float64{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v) // NaN discarded; bounds are inclusive upper bounds
	}
	s := h.Snapshot()
	if want := []int64{2, 1, 1, 1}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Errorf("counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5 (NaN discarded)", s.Count)
	}
	if s.Sum != 556.5 {
		t.Errorf("sum = %g, want 556.5", s.Sum)
	}

	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if got := nilH.Snapshot(); got.Count != 0 {
		t.Errorf("nil snapshot count = %d", got.Count)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds must error")
	}
	if _, err := NewHistogram([]float64{math.Inf(1)}); err == nil {
		t.Error("only +Inf must error (stripped, then empty)")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("descending bounds must error")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("duplicate bounds must error")
	}
	h, err := NewHistogram([]float64{1, 2, math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if s := h.Snapshot(); len(s.Bounds) != 2 {
		t.Errorf("trailing +Inf must be stripped, bounds = %v", s.Bounds)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 3)
	if len(b) != 3 || b[0] != 1 || b[1] != 10 || b[2] != 100 {
		t.Errorf("ExpBuckets = %v", b)
	}
	if _, err := NewHistogram(ExpBuckets(1e-4, 4, 12)); err != nil {
		t.Errorf("runner's bucket layout rejected: %v", err)
	}
}

// TestHistogramConcurrentObserve checks the lock-free hot path:
// observing a stream from many goroutines at once gives the same bucket
// counts, count and sum as observing it in sequence. Run with -race: the
// observes race against each other by design.
func TestHistogramConcurrentObserve(t *testing.T) {
	bounds := []float64{1, 4, 16, 64}
	mk := func() *Histogram {
		h, err := NewHistogram(bounds)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	whole, shared := mk(), mk()
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		v := float64(i % 97)
		whole.Observe(v)
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			shared.Observe(v)
		}(v)
	}
	wg.Wait()
	ws, ss := whole.Snapshot(), shared.Snapshot()
	if ws.Count != ss.Count || ws.Sum != ss.Sum {
		t.Errorf("concurrent parity: sequential (%d, %g) vs concurrent (%d, %g)", ws.Count, ws.Sum, ss.Count, ss.Sum)
	}
	for i := range ws.Counts {
		if ws.Counts[i] != ss.Counts[i] {
			t.Errorf("bucket %d: sequential %d vs concurrent %d", i, ws.Counts[i], ss.Counts[i])
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests_total", "requests", nil)
	c2 := r.Counter("requests_total", "requests", nil)
	if c1 != c2 {
		t.Error("same (name, labels) must return the same counter instance")
	}
	ca := r.Counter("requests_total", "requests", Labels{"code": "200"})
	if ca == c1 {
		t.Error("different labels must return a different instance")
	}
	h1 := r.Histogram("latency_seconds", "latency", []float64{1, 2}, nil)
	h2 := r.Histogram("latency_seconds", "latency", []float64{1, 2}, nil)
	if h1 != h2 {
		t.Error("same histogram registration must return the same instance")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	mustPanic(t, "counter re-registered as gauge", func() { r.Gauge("m", "", nil) })
	r.Histogram("h", "", []float64{1, 2}, nil)
	mustPanic(t, "histogram with different buckets", func() { r.Histogram("h", "", []float64{1, 3}, nil) })
	mustPanic(t, "nil registry", func() {
		var nr *Registry
		nr.Counter("x", "", nil)
	})
	mustPanic(t, "invalid histogram bounds", func() { r.Histogram("bad", "", nil, nil) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s must panic", what)
		}
	}()
	f()
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ds_requests_total", "requests served", Labels{"scenario": "fig3"}).Add(7)
	r.Counter("ds_requests_total", "requests served", Labels{"scenario": "fig1"}).Add(2)
	r.Gauge("ds_temperature", "", nil).Set(1.5)
	h := r.Histogram("ds_latency_seconds", "latency", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Families sorted by name, instances by label string, histogram
	// buckets cumulative, no HELP line for an empty help string.
	want := strings.Join([]string{
		`# HELP ds_latency_seconds latency`,
		`# TYPE ds_latency_seconds histogram`,
		`ds_latency_seconds_bucket{le="0.1"} 1`,
		`ds_latency_seconds_bucket{le="1"} 3`,
		`ds_latency_seconds_bucket{le="+Inf"} 4`,
		`ds_latency_seconds_sum 6.05`,
		`ds_latency_seconds_count 4`,
		`# HELP ds_requests_total requests served`,
		`# TYPE ds_requests_total counter`,
		`ds_requests_total{scenario="fig1"} 2`,
		`ds_requests_total{scenario="fig3"} 7`,
		`# TYPE ds_temperature gauge`,
		`ds_temperature 1.5`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	var nr *Registry
	if err := nr.WritePrometheus(&buf); err == nil {
		t.Error("nil registry must refuse to render")
	}
}

func TestLabelEscaping(t *testing.T) {
	got := renderLabels(Labels{"path": `a\b`, "msg": "line1\nline2", "q": `say "hi"`})
	want := `{msg="line1\nline2",path="a\\b",q="say \"hi\""}`
	if got != want {
		t.Errorf("renderLabels = %s, want %s", got, want)
	}
	if got := withExtraLabel("", "le", "+Inf"); got != `{le="+Inf"}` {
		t.Errorf("withExtraLabel empty = %s", got)
	}
	if got := withExtraLabel(`{a="b"}`, "le", "1"); got != `{a="b",le="1"}` {
		t.Errorf("withExtraLabel = %s", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	s, hs := r.Snapshot()
	if s != nil || hs != nil {
		t.Error("empty registry must snapshot to nil maps")
	}
	r.Counter("c_total", "", Labels{"k": "v"}).Add(3)
	r.Gauge("g", "", nil).Set(2.5)
	r.Histogram("h", "", []float64{1}, nil).Observe(0.5)
	s, hs = r.Snapshot()
	if s[`c_total{k="v"}`] != 3 {
		t.Errorf("counter snapshot = %v", s)
	}
	if s["g"] != 2.5 {
		t.Errorf("gauge snapshot = %v", s)
	}
	if hs["h"].Count != 1 {
		t.Errorf("histogram snapshot = %v", hs)
	}
}

// TestRegistryConcurrent registers and updates the same names from many
// goroutines; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c_total", "help", nil).Inc()
				r.Histogram("h", "help", []float64{1, 2}, nil).Observe(1.5)
			}
		}()
	}
	wg.Wait()
	s, hs := r.Snapshot()
	if s["c_total"] != 800 {
		t.Errorf("counter = %v, want 800", s["c_total"])
	}
	if hs["h"].Count != 800 {
		t.Errorf("histogram count = %d, want 800", hs["h"].Count)
	}
}
