package scenario

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"deltasched/internal/core"
)

// evalTandem runs the tandem scenario's sim backend with the given
// replication settings and returns the metrics and detail.
func evalTandem(t *testing.T, cfg Config) (map[string]float64, TandemDetail) {
	t.Helper()
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Evaluate(context.Background(), cfg, pts[0], Sim)
	if err != nil {
		t.Fatal(err)
	}
	return res.Sim, res.Detail.(TandemDetail)
}

// The determinism contract of the tentpole: for fixed (seed, reps) the
// merged metrics are bit-identical regardless of how many workers run
// the replications. Runs under -race in make check.
func TestReplicatedWorkerInvariance(t *testing.T) {
	base := Config{"H": 2, "n0": 5, "nc": 10, "slots": 8000, "reps": 4, "seed": int64(7)}
	many := runtime.NumCPU()
	if many < 4 {
		many = 4
	}
	m1, d1 := evalTandem(t, base.With("simworkers", 1))
	mN, dN := evalTandem(t, base.With("simworkers", many))
	if !reflect.DeepEqual(m1, mN) {
		t.Fatalf("metrics differ between workers=1 and workers=%d:\n%v\nvs\n%v", many, m1, mN)
	}
	if !reflect.DeepEqual(d1.Dist, dN.Dist) {
		t.Fatal("merged distributions differ between worker counts")
	}
	if !reflect.DeepEqual(d1.PerRep, dN.PerRep) {
		t.Fatal("per-replication distributions differ between worker counts")
	}
	if d1.Stats != dN.Stats {
		t.Fatalf("stats differ between worker counts: %+v vs %+v", d1.Stats, dN.Stats)
	}
}

// The same contract must hold for the sketch backend: its merges are
// bit-commutative by construction, so the pooled sketch and every
// metric — including the rank-error bound — must be invariant under the
// worker count. Runs under -race in make check.
func TestReplicatedWorkerInvarianceSketch(t *testing.T) {
	base := Config{"H": 2, "n0": 5, "nc": 10, "slots": 8000, "reps": 4, "seed": int64(7), "measure": "sketch"}
	many := runtime.NumCPU()
	if many < 4 {
		many = 4
	}
	m1, d1 := evalTandem(t, base.With("simworkers", 1))
	mN, dN := evalTandem(t, base.With("simworkers", many))
	if !reflect.DeepEqual(m1, mN) {
		t.Fatalf("sketch metrics differ between workers=1 and workers=%d:\n%v\nvs\n%v", many, m1, mN)
	}
	if !reflect.DeepEqual(d1.Dist, dN.Dist) {
		t.Fatal("merged sketches differ between worker counts")
	}
	if !reflect.DeepEqual(d1.PerRep, dN.PerRep) {
		t.Fatal("per-replication sketches differ between worker counts")
	}
	if d1.Dist.BackendName() != "sketch" {
		t.Fatalf("pooled summary backend = %q, want sketch", d1.Dist.BackendName())
	}
}

// The sketch summary must stay within its fixed footprint no matter how
// long the run is, while the exact backend keeps one sample per busy
// slot. A 10x-longer horizon pins both halves of that contract.
func TestReplicatedSketchMemoryBounded(t *testing.T) {
	base := Config{"H": 2, "n0": 5, "nc": 10, "seed": int64(5)}
	_, short := evalTandem(t, base.With("slots", 4000).With("measure", "sketch"))
	_, long := evalTandem(t, base.With("slots", 40000).With("measure", "sketch"))
	_, exact := evalTandem(t, base.With("slots", 40000))
	const memCap = 64 << 10 // generous ceiling over the sketch's compile-time footprint
	if long.Dist.MemoryBytes() > memCap {
		t.Fatalf("sketch summary grew to %d B on the long horizon (cap %d)", long.Dist.MemoryBytes(), memCap)
	}
	if long.Dist.MemoryBytes() > 4*short.Dist.MemoryBytes()+memCap {
		t.Fatalf("sketch memory scales with the horizon: %d B at 4k slots, %d B at 40k",
			short.Dist.MemoryBytes(), long.Dist.MemoryBytes())
	}
	if exact.Dist.MemoryBytes() <= long.Dist.MemoryBytes() {
		t.Fatalf("exact backend (%d B) should retain more than the sketch (%d B) on a 40k-slot run",
			exact.Dist.MemoryBytes(), long.Dist.MemoryBytes())
	}
	// Sketch quantiles must land inside the exact run's value bracket at
	// the advertised rank error (identical seed streams, so the underlying
	// sample multisets coincide).
	eps := long.Dist.RankError()
	for _, p := range []float64{0.5, 0.9, 0.99} {
		qs, err := long.Dist.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := exact.Dist.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := exact.Dist.Quantile(math.Min(1, p+eps+1e-9))
		if err != nil {
			t.Fatal(err)
		}
		if qs < lo || qs > hi {
			t.Fatalf("sketch q(%g)=%d outside exact bracket [%d,%d] at rank error %g", p, qs, lo, hi, eps)
		}
	}
}

// Replications must run on disjoint seed streams: with four replications
// of a bursty source, at least one pair of per-replication distributions
// must differ (identical paths would mean seed collapse).
func TestReplicatedSeedStreamsDisjoint(t *testing.T) {
	_, det := evalTandem(t, Config{"H": 2, "n0": 5, "nc": 10, "slots": 8000, "reps": 4, "seed": int64(1)})
	if len(det.PerRep) != 4 {
		t.Fatalf("expected 4 per-replication distributions, got %d", len(det.PerRep))
	}
	allEqual := true
	for i := 1; i < len(det.PerRep); i++ {
		if !reflect.DeepEqual(det.PerRep[0], det.PerRep[i]) {
			allEqual = false
			break
		}
	}
	if allEqual {
		t.Fatal("all replications produced identical distributions — seed streams collapsed")
	}
}

// reps=1 must keep the historical point ID and carry no CI metrics, so
// existing checkpoints and goldens stay valid; reps>1 must tag the ID.
func TestReplicatedPointID(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sc.Points(Config{"reps": 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pts[0].ID, "reps=") {
		t.Fatalf("reps=1 must keep the historical ID, got %s", pts[0].ID)
	}
	pts, err = sc.Points(Config{"reps": 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pts[0].ID, "/reps=8") {
		t.Fatalf("replicated point ID must carry the reps tag, got %s", pts[0].ID)
	}
}

// The exact default keeps the historical point ID; the sketch backend
// produces approximate quantiles and must not satisfy exact checkpoints.
func TestMeasurePointID(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sc.Points(Config{"measure": "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pts[0].ID, "measure=") {
		t.Fatalf("measure=exact must keep the historical ID, got %s", pts[0].ID)
	}
	pts, err = sc.Points(Config{"measure": "sketch"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pts[0].ID, "/measure=sketch") {
		t.Fatalf("sketch point ID must carry the measure tag, got %s", pts[0].ID)
	}
}

// An unknown measurement backend must fail configuration validation.
func TestMeasureBadBackend(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{"measure": "histogram"}
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Evaluate(context.Background(), cfg, pts[0], Sim); !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("unknown measure backend must fail with ErrBadConfig, got %v", err)
	}
}

func TestReplicatedMetrics(t *testing.T) {
	m, det := evalTandem(t, Config{"H": 2, "n0": 5, "nc": 10, "slots": 8000, "reps": 4, "seed": int64(3)})
	if det.Reps != 4 || det.SlotsPerRep != 2000 {
		t.Fatalf("detail carries reps=%d slotsPerRep=%d, want 4 and 2000", det.Reps, det.SlotsPerRep)
	}
	for _, key := range []string{"sim_reps", "sim_censored_fraction", "sim_delay_quantile_ci_slots", "sim_delay_quantile_mean_slots", "sim_summary_bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("replicated metrics missing %q (have %v)", key, m)
		}
	}
	if m["sim_reps"] != 4 {
		t.Fatalf("sim_reps = %g, want 4", m["sim_reps"])
	}

	// Single runs keep the historical metric set plus the (new, always
	// emitted) censored fraction — and no CI keys.
	m, det = evalTandem(t, Config{"H": 2, "n0": 5, "nc": 10, "slots": 8000, "reps": 1, "seed": int64(3)})
	if det.Reps != 1 {
		t.Fatalf("reps=1 detail carries reps=%d", det.Reps)
	}
	if _, ok := m["sim_censored_fraction"]; !ok {
		t.Error("sim_censored_fraction must be emitted for single runs too")
	}
	for _, key := range []string{"sim_reps", "sim_delay_quantile_ci_slots", "sim_violation_fraction_ci"} {
		if _, ok := m[key]; ok {
			t.Errorf("single run must not emit %q", key)
		}
	}
}

// The aggregated slot progress over all replications must be monotonic
// and finish exactly at reps × slots-per-replication.
func TestReplicatedProgressAggregation(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	var dones []int
	total := 0
	cfg := Config{"H": 2, "n0": 5, "nc": 10, "slots": 8000, "reps": 4, "simworkers": 2, "seed": int64(2)}
	cfg = cfg.WithProgress(func(done, tot int) {
		dones = append(dones, done)
		total = tot
	})
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Evaluate(context.Background(), cfg, pts[0], Sim); err != nil {
		t.Fatal(err)
	}
	if total != 8000 {
		t.Fatalf("progress total %d, want 8000 (4 reps x 2000 slots)", total)
	}
	if len(dones) == 0 {
		t.Fatal("no progress observed")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] < dones[i-1] {
			t.Fatalf("progress regressed: %v", dones)
		}
	}
	if final := dones[len(dones)-1]; final != total {
		t.Fatalf("final progress %d, want %d", final, total)
	}
}

func TestReplicatedBadConfig(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{"slots": 4, "reps": 8},
		{"reps": 0},
		{"reps": -1},
	} {
		pts, err := sc.Points(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Evaluate(context.Background(), cfg, pts[0], Sim); !errors.Is(err, core.ErrBadConfig) {
			t.Fatalf("cfg %v must fail with ErrBadConfig, got %v", cfg, err)
		}
	}
}

// Cancellation must propagate into the replication pool.
func TestReplicatedCancellation(t *testing.T) {
	sc, err := Get("tandem")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{"H": 2, "n0": 5, "nc": 10, "slots": 400000, "reps": 4, "seed": int64(1)}
	pts, err := sc.Points(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Evaluate(ctx, cfg, pts[0], Sim); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replicated run must surface context.Canceled, got %v", err)
	}
}
