package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/minplus"
	"deltasched/internal/randx"
	"deltasched/internal/traffic"
)

func TestTandemNoLoadNoDelay(t *testing.T) {
	tan := &Tandem{
		C:         10,
		Through:   traffic.CBR{Rate: 4},
		Cross:     make([]traffic.Source, 3), // three nodes, no cross traffic
		MakeSched: func(int) Scheduler { return NewFIFO() },
	}
	rec, stats, err := tan.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ThroughArrived != 800 || math.Abs(stats.ThroughLeft-800) > 1e-6 {
		t.Fatalf("conservation: arrived %g, left %g", stats.ThroughArrived, stats.ThroughLeft)
	}
	d := rec.Distribution()
	mx, err := d.Max()
	if err != nil {
		t.Fatal(err)
	}
	if mx != 0 {
		t.Fatalf("underloaded cut-through tandem should have zero delay, got %d", mx)
	}
}

// A Tandem with an injected Sink must feed it the exact same cumulative
// curves the default recorder sees: streaming an exact summary through
// the sink reproduces the batch distribution bit for bit.
func TestTandemSinkMatchesRecorder(t *testing.T) {
	m := envelope.PaperSource()
	mk := func(seed int64) *Tandem {
		rng := rand.New(rand.NewSource(seed))
		through, err := traffic.NewMMOOAggregate(m, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross := make([]traffic.Source, 2)
		for i := range cross {
			cs, err := traffic.NewMMOOAggregate(m, 10, rng)
			if err != nil {
				t.Fatal(err)
			}
			cross[i] = cs
		}
		return &Tandem{C: 20, Through: through, Cross: cross,
			MakeSched: func(int) Scheduler { return NewFIFO() }}
	}

	batch := mk(99)
	rec, statsBatch, err := batch.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Distribution()

	streamed := mk(99)
	stream := measure.NewStreamRecorder(measure.BackendExact.New())
	streamed.Sink = stream
	recNil, statsStream, err := streamed.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if recNil != nil {
		t.Fatal("Run must not allocate a DelayRecorder when a Sink is injected")
	}
	if statsBatch != statsStream {
		t.Fatalf("stats diverge between sink and recorder runs: %+v vs %+v", statsBatch, statsStream)
	}
	got, ok := stream.Finish().(*measure.Distribution)
	if !ok {
		t.Fatal("exact stream recorder must yield a *measure.Distribution")
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatal("streamed exact summary differs from the batch distribution")
	}
	if n, _ := want.Samples(); n == 0 {
		t.Fatal("test run produced no delay samples")
	}
}

func TestTandemValidation(t *testing.T) {
	base := &Tandem{
		C:         10,
		Through:   traffic.CBR{Rate: 1},
		Cross:     make([]traffic.Source, 1),
		MakeSched: func(int) Scheduler { return NewFIFO() },
	}
	bad := *base
	bad.C = 0
	if _, _, err := bad.Run(10); err == nil {
		t.Error("zero capacity must be rejected")
	}
	bad = *base
	bad.Through = nil
	if _, _, err := bad.Run(10); err == nil {
		t.Error("missing through source must be rejected")
	}
	bad = *base
	bad.Cross = nil
	if _, _, err := bad.Run(10); err == nil {
		t.Error("zero nodes must be rejected")
	}
	bad = *base
	bad.MakeSched = nil
	if _, _, err := bad.Run(10); err == nil {
		t.Error("missing scheduler factory must be rejected")
	}
}

// TestSingleNodeFlowIDs pins the boundaries of SingleNode's dense serve
// output, which flow ids index: a negative id is rejected, and sparse ids
// serve and record exactly like their dense renumbering.
func TestSingleNodeFlowIDs(t *testing.T) {
	neg := &SingleNode{C: 10, Sched: NewFIFO(), Sources: map[core.FlowID]traffic.Source{
		0: traffic.CBR{Rate: 1}, -1: traffic.CBR{Rate: 1},
	}}
	if _, err := neg.Run(10); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative flow id: err = %v, want a negative-id error", err)
	}

	// Both runs draw the same traffic in the same order (flows run in id
	// order) under static priority, whose precedence never reaches the
	// flow-id tie-break, so the renumbering must be invisible.
	const slots = 3000
	run := func(lo, hi core.FlowID) (*measure.DelayRecorder, *measure.DelayRecorder) {
		rng := randx.NewRand(4)
		model := envelope.PaperSource()
		src := func(n int) traffic.Source {
			s, err := traffic.NewMMOOAggregate(model, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		node := &SingleNode{
			C:       8,
			Sched:   NewSP(map[core.FlowID]int{lo: 1, hi: 2}),
			Sources: map[core.FlowID]traffic.Source{lo: src(30), hi: src(20)},
		}
		recs, err := node.Run(slots)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("ids {%d, %d}: %d recorders, want 2", lo, hi, len(recs))
		}
		return recs[lo], recs[hi]
	}
	sparseLo, sparseHi := run(0, 5)
	denseLo, denseHi := run(0, 1)
	requireSameRecorder(t, "low-priority flow", sparseLo, denseLo)
	requireSameRecorder(t, "high-priority flow", sparseHi, denseHi)
	if sparseLo.MaxBacklog() == 0 {
		t.Fatal("the low-priority flow never queued: the load is too light to test anything")
	}
}

// greedySingleNode runs the Theorem 2 adversarial scenario: every flow
// traces its deterministic envelope greedily from slot 0, and the measured
// worst-case delay of the tagged flow must attain the analytical bound
// DelayBoundDet (within slot-quantization tolerance). This is experiment
// V2 of DESIGN.md.
func greedySingleNode(t *testing.T, p core.Policy, sched Scheduler, envs map[core.FlowID]minplus.Curve) (measured int, analytic float64) {
	t.Helper()
	const c = 10.0
	analytic, err := core.DelayBoundDet(c, 0, envs, p)
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[core.FlowID]traffic.Source, len(envs))
	for f, e := range envs {
		g, err := traffic.NewGreedy(e)
		if err != nil {
			t.Fatal(err)
		}
		sources[f] = g
	}
	node := &SingleNode{C: c, Sched: sched, Sources: sources}
	recs, err := node.Run(int(8*analytic) + 200)
	if err != nil {
		t.Fatal(err)
	}
	dist := recs[0].Distribution()
	mx, err := dist.Max()
	if err != nil {
		t.Fatal(err)
	}
	return mx, analytic
}

func TestTightnessFIFO(t *testing.T) {
	envs := map[core.FlowID]minplus.Curve{
		0: minplus.Affine(2, 40),
		1: minplus.Affine(3, 120),
	}
	mx, analytic := greedySingleNode(t, core.FIFO{}, NewFIFO(), envs)
	if float64(mx) > analytic+1.5 {
		t.Fatalf("measured delay %d exceeds the bound %g: Theorem 2 sufficiency violated", mx, analytic)
	}
	if float64(mx) < analytic-2.5 {
		t.Fatalf("measured delay %d far below the bound %g: tightness (necessity) not attained", mx, analytic)
	}
}

func TestTightnessBMUX(t *testing.T) {
	envs := map[core.FlowID]minplus.Curve{
		0: minplus.Affine(2, 40),
		1: minplus.Affine(3, 120),
	}
	p := core.BMUX{Low: 0}
	mx, analytic := greedySingleNode(t, p, NewBMUX(0), envs)
	if float64(mx) > analytic+1.5 {
		t.Fatalf("measured delay %d exceeds the bound %g", mx, analytic)
	}
	// The greedy pattern alone does not exercise the BMUX worst case as
	// sharply (cross traffic must keep preempting), but it should still get
	// within a few slots for leaky buckets.
	if float64(mx) < 0.8*analytic {
		t.Fatalf("measured delay %d too far below the bound %g", mx, analytic)
	}
}

func TestTightnessEDF(t *testing.T) {
	envs := map[core.FlowID]minplus.Curve{
		0: minplus.Affine(2, 40),
		1: minplus.Affine(3, 120),
	}
	deadlines := map[core.FlowID]float64{0: 30, 1: 10} // through has the looser deadline
	p := core.EDF{Deadline: deadlines}
	mx, analytic := greedySingleNode(t, p, NewEDF(deadlines), envs)
	if float64(mx) > analytic+1.5 {
		t.Fatalf("measured delay %d exceeds the bound %g", mx, analytic)
	}
	if float64(mx) < analytic-3.5 {
		t.Fatalf("measured delay %d far below the bound %g", mx, analytic)
	}
}

func TestSchedulerOrderingEmpirical(t *testing.T) {
	// Same MMOO sample paths (same seed) through a 2-node tandem under
	// different schedulers: through-flow delays must order
	// SP(high) <= EDF(favourable) <= FIFO <= BMUX at high quantiles.
	run := func(mk func(int) Scheduler) float64 {
		m := envelope.PaperSource()
		rng := rand.New(rand.NewSource(7))
		throughSrc, err := traffic.NewMMOOAggregate(m, 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross := make([]traffic.Source, 2)
		for i := range cross {
			cs, err := traffic.NewMMOOAggregate(m, 60, rng)
			if err != nil {
				t.Fatal(err)
			}
			cross[i] = cs
		}
		tan := &Tandem{C: 20, Through: throughSrc, Cross: cross, MakeSched: mk}
		rec, _, err := tan.Run(60000)
		if err != nil {
			t.Fatal(err)
		}
		q, err := rec.Distribution().Quantile(0.999)
		if err != nil {
			t.Fatal(err)
		}
		return float64(q)
	}

	sp := run(func(int) Scheduler { return NewSP(map[core.FlowID]int{ThroughFlow: 2, CrossFlow: 1}) })
	edf := run(func(int) Scheduler {
		return NewEDF(map[core.FlowID]float64{ThroughFlow: 5, CrossFlow: 50})
	})
	fifo := run(func(int) Scheduler { return NewFIFO() })
	bmux := run(func(int) Scheduler { return NewBMUX(ThroughFlow) })

	if !(sp <= edf+1 && edf <= fifo+1 && fifo <= bmux+1) {
		t.Fatalf("empirical p99.9 ordering violated: SP=%g EDF=%g FIFO=%g BMUX=%g", sp, edf, fifo, bmux)
	}
	if bmux <= sp {
		t.Fatalf("BMUX (%g) should be strictly worse than SP (%g) under load", bmux, sp)
	}
}

// TestBoundsHoldUnderSimulation is experiment V1 of DESIGN.md: the
// analytical end-to-end delay bound at violation probability eps must
// upper-bound the simulated delays — the empirical violation fraction of
// the bound must not exceed eps (it is typically far below, since the
// bounds are conservative).
func TestBoundsHoldUnderSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const (
		c     = 20.0 // kb per slot
		n0    = 30
		nc    = 60
		h     = 3
		eps   = 1e-2
		slots = 200000
	)
	m := envelope.PaperSource()

	build := func(alpha float64) (core.PathConfig, error) {
		through, err := m.EBBAggregate(n0, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		cross, err := m.EBBAggregate(nc, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		return core.PathConfig{H: h, C: c, Through: through, Cross: cross, Delta0c: 0}, nil
	}
	res, err := core.OptimizeAlpha(build, eps, 1e-3, 5)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12345))
	throughSrc, err := traffic.NewMMOOAggregate(m, n0, rng)
	if err != nil {
		t.Fatal(err)
	}
	cross := make([]traffic.Source, h)
	for i := range cross {
		cs, err := traffic.NewMMOOAggregate(m, nc, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross[i] = cs
	}
	tan := &Tandem{C: c, Through: throughSrc, Cross: cross,
		MakeSched: func(int) Scheduler { return NewFIFO() }}
	rec, stats, err := tan.Run(slots)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ThroughLeft > stats.ThroughArrived {
		t.Fatalf("conservation violated: left %g > arrived %g", stats.ThroughLeft, stats.ThroughArrived)
	}

	dist := rec.Distribution()
	frac := dist.ViolationFraction(res.D)
	if frac > eps {
		t.Fatalf("empirical violation fraction %g exceeds eps %g (bound %g slots)", frac, eps, res.D)
	}
	// The bound should not be absurdly loose either: the observed p99
	// delay must be within the bound (sanity against vacuous bounds).
	q99, err := dist.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if float64(q99) > res.D {
		t.Fatalf("p99 delay %d exceeds the eps=1e-2 bound %g", q99, res.D)
	}
}

// TestBoundsHoldAcrossSchedulers extends V1 to BMUX and EDF: for every
// Δ-scheduler configuration the analytical end-to-end bound must dominate
// the simulated delay distribution at the matching violation probability.
func TestBoundsHoldAcrossSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const (
		c     = 20.0
		n0    = 30
		nc    = 60
		h     = 2
		eps   = 1e-2
		slots = 100000
	)
	m := envelope.PaperSource()

	cases := []struct {
		name  string
		delta float64
		mk    func(int) Scheduler
	}{
		{"bmux", math.Inf(1), func(int) Scheduler { return NewBMUX(ThroughFlow) }},
		{"edf", 5 - 50, func(int) Scheduler {
			return NewEDF(map[core.FlowID]float64{ThroughFlow: 5, CrossFlow: 50})
		}},
		{"sp", math.Inf(-1), func(int) Scheduler {
			return NewSP(map[core.FlowID]int{ThroughFlow: 2, CrossFlow: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(alpha float64) (core.PathConfig, error) {
				through, err := m.EBBAggregate(n0, alpha)
				if err != nil {
					return core.PathConfig{}, err
				}
				cross, err := m.EBBAggregate(nc, alpha)
				if err != nil {
					return core.PathConfig{}, err
				}
				return core.PathConfig{H: h, C: c, Through: through, Cross: cross, Delta0c: tc.delta}, nil
			}
			res, err := core.OptimizeAlpha(build, eps, 1e-3, 5)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(777))
			through, err := traffic.NewMMOOAggregate(m, n0, rng)
			if err != nil {
				t.Fatal(err)
			}
			cross := make([]traffic.Source, h)
			for i := range cross {
				cs, err := traffic.NewMMOOAggregate(m, nc, rng)
				if err != nil {
					t.Fatal(err)
				}
				cross[i] = cs
			}
			tan := &Tandem{C: c, Through: through, Cross: cross, MakeSched: tc.mk}
			rec, _, err := tan.Run(slots)
			if err != nil {
				t.Fatal(err)
			}
			dist := rec.Distribution()
			if frac := dist.ViolationFraction(res.D); frac > eps {
				t.Fatalf("violation fraction %g exceeds eps %g (bound %g)", frac, eps, res.D)
			}
			// Batch-means CI must also keep the violation estimate below eps.
			fracCI, half, err := rec.ViolationCI(res.D, 10)
			if err != nil {
				t.Fatal(err)
			}
			if fracCI+half > eps {
				t.Fatalf("violation CI %g±%g not below eps %g", fracCI, half, eps)
			}
		})
	}
}

func TestTandemCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tan := &Tandem{
		C:             10,
		Through:       traffic.CBR{Rate: 4},
		Cross:         make([]traffic.Source, 2),
		MakeSched:     func(int) Scheduler { return NewFIFO() },
		ProgressEvery: 100,
		Ctx:           ctx,
		Progress: func(done, total int) {
			if done >= 300 {
				cancel()
			}
		},
	}
	_, _, err := tan.Run(1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// A nil Ctx must keep working as before.
	tan2 := &Tandem{
		C:         10,
		Through:   traffic.CBR{Rate: 4},
		Cross:     make([]traffic.Source, 2),
		MakeSched: func(int) Scheduler { return NewFIFO() },
	}
	if _, _, err := tan2.Run(500); err != nil {
		t.Fatal(err)
	}
}
