package scenario

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"deltasched/internal/core"
)

func TestParseBackend(t *testing.T) {
	tests := []struct {
		in   string
		want Backend
		err  bool
	}{
		{"analytic", Analytic, false},
		{"sim", Sim, false},
		{"both", Both, false},
		{"", 0, true},
		{"quantum", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseBackend(tt.in)
		if (err != nil) != tt.err || got != tt.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tt.in, got, err)
		}
	}
	if !Both.Has(Analytic) || !Both.Has(Sim) || Analytic.Has(Sim) {
		t.Fatal("Backend.Has bit logic broken")
	}
	if Both.String() != "both" || Analytic.String() != "analytic" || Sim.String() != "sim" {
		t.Fatal("Backend.String spelling changed")
	}
}

func TestRegistryHasBuiltins(t *testing.T) {
	for _, name := range []string{
		"fig1", "fig2", "fig3",
		"scaling", "edf-gain", "recipe", "gamma-alpha", "region",
		"path", "heteropath", "tandem",
	} {
		sc, err := Get(name)
		if err != nil {
			t.Fatalf("built-in scenario %q missing: %v", name, err)
		}
		if sc.Info().Name != name {
			t.Fatalf("scenario %q reports name %q", name, sc.Info().Name)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown scenario must error")
	}
	infos := Infos()
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("Infos not sorted by name: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(singleScenario{info: Info{Name: "fig1"}})
}

func TestConfigGetters(t *testing.T) {
	cfg := Config{"f": 1.5, "i": 3, "i64": int64(7), "b": true, "s": "x"}
	if cfg.Float("f") != 1.5 || cfg.Float("missing") != 0 {
		t.Fatal("Float getter")
	}
	if cfg.Int("i") != 3 || cfg.Int("missing") != 0 {
		t.Fatal("Int getter")
	}
	if cfg.Int64("i64") != 7 || cfg.Int64("missing") != 0 {
		t.Fatal("Int64 getter")
	}
	if !cfg.Bool("b") || cfg.Bool("missing") {
		t.Fatal("Bool getter")
	}
	if cfg.Str("s") != "x" || cfg.Str("missing") != "" {
		t.Fatal("Str getter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Float read the int parameter i instead of panicking")
			}
		}()
		cfg.Float("i")
	}()
	if cfg.Progress() != nil {
		t.Fatal("Progress must be nil when not injected")
	}
	called := false
	cfg2 := cfg.WithProgress(func(done, total int) { called = true })
	if cfg2.Progress() == nil {
		t.Fatal("WithProgress lost the callback")
	}
	cfg2.Progress()(1, 2)
	if !called {
		t.Fatal("injected progress callback not invoked")
	}
	if cfg.Progress() != nil {
		t.Fatal("WithProgress must not mutate the original config")
	}
}

// TestResolve pins the schema contract every Config meets before a
// scenario sees it: a value of another type than its Param's default
// is a bad config, naming the parameter; a missing one takes the
// default; a complete config passes through as is; and the caller's
// map is never written.
func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		scenario, param string
		cfg             Config
	}{
		{"fig1", "seed", Config{"seed": 3}},
		{"tandem", "C", Config{"C": 20}},
		{"path", "n0", Config{"n0": 100}},
		{"tandem", "n0", Config{"n0": 30.0}},
		{"scaling", "quick", Config{"quick": "true"}},
	} {
		sc, err := Get(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sc.Info().Resolve(tc.cfg)
		if !errors.Is(err, core.ErrBadConfig) || !strings.Contains(err.Error(), `"`+tc.param+`"`) {
			t.Errorf("%s %v: Resolve err = %v, want ErrBadConfig naming %q", tc.scenario, tc.cfg, err, tc.param)
		}
		// Points and Evaluate resolve through the registry too.
		if _, err := sc.Points(tc.cfg); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s %v: Points err = %v, want ErrBadConfig", tc.scenario, tc.cfg, err)
		}
		if _, err := sc.Evaluate(context.Background(), tc.cfg, Point{}, Analytic); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s %v: Evaluate err = %v, want ErrBadConfig", tc.scenario, tc.cfg, err)
		}
	}

	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	info := sc.Info()
	partial := Config{"H": 7, "seed": int64(9), "_progress": "kept"}
	got, err := info.Resolve(partial)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 3 {
		t.Fatalf("Resolve wrote the caller's map: %v", partial)
	}
	if got.Int("H") != 7 || got.Int64("seed") != 9 || got["_progress"] != "kept" {
		t.Fatalf("Resolve lost set values: %v", got)
	}
	for _, p := range info.Params {
		if p.Name != "H" && p.Name != "seed" && got[p.Name] != p.Default {
			t.Errorf("missing %s resolved to %v (%T), want its default %v (%T)", p.Name, got[p.Name], got[p.Name], p.Default, p.Default)
		}
	}
	again, err := info.Resolve(got)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(again).Pointer() != reflect.ValueOf(got).Pointer() {
		t.Fatal("a complete config must come back as is, not as a copy")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = info.Resolve(got) }); n != 0 {
		t.Fatalf("resolving a complete config allocates %v times", n)
	}
}

func TestFloatSweep(t *testing.T) {
	got := FloatSweep(0.2, 0.6, 0.2)
	want := []float64{0.2, 0.4, 0.6}
	if len(got) != len(want) {
		t.Fatalf("FloatSweep = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("FloatSweep[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestIntSweep(t *testing.T) {
	got := IntSweep(1, 7, 3)
	want := []int{1, 4, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IntSweep = %v, want %v", got, want)
	}
}

func TestSchedulerFor(t *testing.T) {
	tests := []struct {
		name      string
		wantDelta float64
		wantErr   bool
	}{
		{"fifo", 0, false},
		{"bmux", math.Inf(1), false},
		{"sp", math.Inf(-1), false},
		{"edf", -45, false},
		{"gps", math.NaN(), false},
		{"drr", math.NaN(), false},
		{"wfq", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mk, delta, err := SchedulerFor(tt.name, 5, 50, 1, 1)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if tt.wantErr {
				return
			}
			if mk == nil || mk(0) == nil {
				t.Fatal("scheduler factory must produce schedulers")
			}
			if math.IsNaN(tt.wantDelta) != math.IsNaN(delta) {
				t.Fatalf("delta = %g, want NaN-ness %v", delta, math.IsNaN(tt.wantDelta))
			}
			if !math.IsNaN(tt.wantDelta) && delta != tt.wantDelta {
				t.Fatalf("delta = %g, want %g", delta, tt.wantDelta)
			}
		})
	}
}

func TestValidateWeights(t *testing.T) {
	if err := validateWeights(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := validateWeights(0, 1); err == nil {
		t.Fatal("zero weight must be rejected")
	}
}

// TestSchedulerForRejectsBadParams pins the parameter checks: every
// combination the factories could not run on — or would run on NaN
// arithmetic — fails up front with ErrBadConfig instead of panicking
// inside a replication or simulating garbage.
func TestSchedulerForRejectsBadParams(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		label          string
		name           string
		d0, dc, w0, wc float64
	}{
		{"unknown scheduler", "wfq", 5, 50, 1, 1},
		{"drr infinite weight", "drr", 5, 50, inf, 1},
		{"drr zero weight", "drr", 5, 50, 1, 0},
		{"gps NaN weight", "gps", 5, 50, nan, 1},
		{"gps infinite weight", "gps", 5, 50, inf, 1},
		{"gps negative weight", "gps", 5, 50, 1, -2},
		{"edf NaN deadline", "edf", nan, 50, 1, 1},
		{"edf infinite deadlines", "edf", inf, inf, 1, 1},
		// One infinite deadline would price another scheduler's bound:
		// Δ = +∞ is BMUX's, Δ = −∞ SP's.
		{"edf infinite through deadline", "edf", inf, 50, 1, 1},
		{"edf infinite cross deadline", "edf", 5, inf, 1, 1},
		{"edf -Inf through deadline", "edf", -inf, 50, 1, 1},
	} {
		mk, _, err := SchedulerFor(tc.name, tc.d0, tc.dc, tc.w0, tc.wc)
		if !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.label, err)
		}
		if mk != nil {
			t.Errorf("%s: rejected parameters still produced a factory", tc.label)
		}
	}
	// Any finite deadline sign still runs: Δ = d0 − dc.
	if _, delta, err := SchedulerFor("edf", -3, 5, 1, 1); err != nil || delta != -8 {
		t.Fatalf("edf d0=-3, dc=5: delta %g, err %v; want -8, nil", delta, err)
	}
}

// TestTandemRejectsBadPktsize pins the -pktsize domain: 0 (fluid) or a
// positive finite packet size on a precedence discipline.
func TestTandemRejectsBadPktsize(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{"pktsize": math.NaN()},
		{"pktsize": -3.0},
		{"pktsize": math.Inf(1)},
		{"pktsize": 1.5, "sched": "gps"},
		{"pktsize": 1.5, "sched": "drr"},
	} {
		cfg["slots"] = 100
		pts, err := sc.Points(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Evaluate(context.Background(), cfg, pts[0], Sim); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("cfg %v: err = %v, want ErrBadConfig", cfg, err)
		}
	}
	// Every precedence discipline accepts a packet size.
	for _, sched := range []string{"fifo", "bmux", "sp", "edf"} {
		cfg := Config{"pktsize": 1.5, "sched": sched, "slots": 100}
		pts, err := sc.Points(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Evaluate(context.Background(), cfg, pts[0], Sim); err != nil {
			t.Errorf("%s with -pktsize 1.5: %v", sched, err)
		}
	}
}

func TestFigPointsDeterministic(t *testing.T) {
	sc, err := Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{"quick": true}
	a, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("fig1 enumerated no points")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].X != b[i].X || a[i].Series != b[i].Series {
			t.Fatalf("point %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
	seen := make(map[string]bool, len(a))
	for _, p := range a {
		if p.ID == "" || seen[p.ID] {
			t.Fatalf("point ID %q empty or duplicated", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestTandemBothBackends(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{"H": 2, "C": 20.0, "n0": 5, "nc": 10, "slots": 2000, "eps": 1e-2}
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("tandem must be single-point, got %d", len(pts))
	}
	res, err := sc.Evaluate(context.Background(), cfg, pts[0], Both)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Analytic) || res.Analytic <= 0 {
		t.Fatalf("missing analytic bound: %g", res.Analytic)
	}
	if _, ok := res.Sim["sim_delay_quantile_slots"]; !ok {
		t.Fatalf("missing empirical quantile: %v", res.Sim)
	}
	if _, ok := res.Sim["sim_violation_fraction"]; !ok {
		t.Fatalf("combined run must report the violation fraction of the bound: %v", res.Sim)
	}
	det, ok := res.Detail.(TandemDetail)
	if !ok {
		t.Fatalf("tandem Detail has type %T", res.Detail)
	}
	if det.BoundLabel == "" || det.Stats.ThroughArrived <= 0 {
		t.Fatalf("detail incomplete: %+v", det)
	}

	// Sim-only: no bound, still empirical metrics.
	res, err = sc.Evaluate(context.Background(), cfg, pts[0], Sim)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Analytic) {
		t.Fatalf("sim-only run computed a bound: %g", res.Analytic)
	}
	if _, ok := res.Sim["sim_violation_fraction"]; ok {
		t.Fatal("sim-only run cannot know the bound's violation fraction")
	}
}

func TestFigSimBackendProvisionsEDF(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation per point")
	}
	sc, err := Get("fig2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{"quick": true, "slots": 500, "seed": int64(1)}
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick one EDF point: deriving deadlines needs the analytic bound even
	// under the pure sim backend.
	for _, pt := range pts {
		sp := pt.Data
		if sp == nil {
			t.Fatal("fig point without sweep data")
		}
		if pt.Series == "EDF (d*0=d*c/2) H=2" {
			res, err := sc.Evaluate(context.Background(), cfg, pt, Sim)
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsNaN(res.Analytic) {
				t.Fatalf("sim backend must not report the bound, got %g", res.Analytic)
			}
			if _, ok := res.Sim["sim_delay_quantile_slots"]; !ok {
				t.Fatalf("EDF sim point has no quantile: %v", res.Sim)
			}
			return
		}
	}
	t.Fatal("no EDF H=2 point enumerated")
}
