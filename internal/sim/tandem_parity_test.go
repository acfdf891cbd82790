package sim

import (
	"fmt"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/randx"
	"deltasched/internal/traffic"
)

// The tandem parity tests pin the block-batched slot engine (block fill,
// SoA serve path, FIFO ring fast pass) to the verbatim pre-block loop in
// tandem_ref_test.go: same seeds, same wiring, every simulated number
// bit-identical. Any FP reordering, RNG draw reordering, or serve-order
// change in the engine trips these before it can reach the goldens.

// parityObs is one probe observation, captured for exact comparison.
type parityObs struct {
	node, slot int
	served     float64
	capacity   float64
	backlog    float64
	queueLen   int
}

// parityProbe samples every strideth slot and records raw observations.
type parityProbe struct {
	stride int
	obs    []parityObs
}

func (p *parityProbe) Sample(slot int) bool { return slot%p.stride == 0 }
func (p *parityProbe) ObserveNode(node, slot int, served, capacity, backlog float64, queueLen int) {
	p.obs = append(p.obs, parityObs{node, slot, served, capacity, backlog, queueLen})
}

// mkTandemSources mirrors the scenario wiring: one RNG shared by the
// through aggregate and every cross aggregate, so per-slot draw order is
// part of the contract being tested.
func mkTandemSources(seed int64, h, n0, nc int, countAgg bool) (traffic.Source, []traffic.Source) {
	rng := randx.NewRand(seed)
	model := envelope.PaperSource()
	var (
		through traffic.Source
		err     error
	)
	if countAgg {
		through, err = traffic.NewMMOOCountAggregate(model, n0, rng)
	} else {
		through, err = traffic.NewMMOOAggregate(model, n0, rng)
	}
	if err != nil {
		panic(err)
	}
	cross := make([]traffic.Source, h)
	for i := range cross {
		var cs traffic.Source
		if countAgg {
			cs, err = traffic.NewMMOOCountAggregate(model, nc, rng)
		} else {
			cs, err = traffic.NewMMOOAggregate(model, nc, rng)
		}
		if err != nil {
			panic(err)
		}
		cross[i] = cs
	}
	return through, cross
}

// paritySchedulers is the scheduler matrix: every discipline the tandem
// scenario can select, both FIFO implementations, and the packetized
// wrappers around both FIFOs, EDF and SP.
func paritySchedulers() map[string]func(node int) Scheduler {
	return map[string]func(node int) Scheduler{
		"fifo-ring": func(int) Scheduler { return NewFIFO() },
		"fifo-heap": func(int) Scheduler { return newHeapFIFO() },
		"sp":        func(int) Scheduler { return NewSP(map[core.FlowID]int{ThroughFlow: 0, CrossFlow: 1}) },
		"bmux":      func(int) Scheduler { return NewBMUX(CrossFlow) },
		"edf": func(int) Scheduler {
			return NewEDF(map[core.FlowID]float64{ThroughFlow: 5, CrossFlow: 50})
		},
		"gps": func(int) Scheduler {
			g, err := NewGPS(map[core.FlowID]float64{ThroughFlow: 1, CrossFlow: 2})
			if err != nil {
				panic(err)
			}
			return g
		},
		"drr": func(int) Scheduler {
			d, err := NewDRR(map[core.FlowID]float64{ThroughFlow: 3, CrossFlow: 6})
			if err != nil {
				panic(err)
			}
			return d
		},
		"np-fifo-ring": func(int) Scheduler {
			np, err := NewNonPreemptive(NewFIFO(), 2)
			if err != nil {
				panic(err)
			}
			return np
		},
		"np-fifo-heap": func(int) Scheduler {
			np, err := NewNonPreemptive(newHeapFIFO(), 2)
			if err != nil {
				panic(err)
			}
			return np
		},
		"np-edf": func(int) Scheduler {
			np, err := NewNonPreemptive(NewEDF(map[core.FlowID]float64{ThroughFlow: 5, CrossFlow: 50}), 2)
			if err != nil {
				panic(err)
			}
			return np
		},
		"np-sp": func(int) Scheduler {
			np, err := NewNonPreemptive(NewSP(map[core.FlowID]int{ThroughFlow: 0, CrossFlow: 1}), 2)
			if err != nil {
				panic(err)
			}
			return np
		},
	}
}

// requireSameRecorder asserts bit-exact equality of two delay recorders:
// every per-slot virtual delay, the final backlog, and the max backlog.
func requireSameRecorder(t *testing.T, label string, got, want *measure.DelayRecorder) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: recorder nil mismatch: block=%v ref=%v", label, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Slots() != want.Slots() {
		t.Fatalf("%s: slots %d != %d", label, got.Slots(), want.Slots())
	}
	for slot := 0; slot < want.Slots(); slot++ {
		gd, gok := got.VirtualDelay(slot)
		wd, wok := want.VirtualDelay(slot)
		if gd != wd || gok != wok {
			t.Fatalf("%s: VirtualDelay(%d) = (%d,%v), ref (%d,%v)", label, slot, gd, gok, wd, wok)
		}
	}
	if g, w := got.Backlog(), want.Backlog(); g != w {
		t.Fatalf("%s: Backlog %x != %x", label, g, w)
	}
	if g, w := got.MaxBacklog(), want.MaxBacklog(); g != w {
		t.Fatalf("%s: MaxBacklog %x != %x", label, g, w)
	}
}

// requireSameStats asserts exact float equality on every Stats field,
// including MaxBacklog — the field the FIFO fast pass reads from the
// ring's backlog accumulator instead of calling Backlog().
func requireSameStats(t *testing.T, label string, got, want Stats) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: stats diverge:\nblock %+v\nref   %+v", label, got, want)
	}
}

// TestTandemBlockLoopParity is the tentpole pin: block engine vs the
// verbatim old loop across schedulers and seeds, uniform capacity, the
// scenario's shared-RNG source wiring.
func TestTandemBlockLoopParity(t *testing.T) {
	const (
		h     = 3
		n0    = 8
		nc    = 16
		slots = 2600 // crosses two block boundaries and two progress ticks
	)
	for name, mk := range paritySchedulers() {
		for _, seed := range []int64{1, 42, 9001} {
			label := fmt.Sprintf("%s/seed=%d", name, seed)
			build := func() *Tandem {
				through, cross := mkTandemSources(seed, h, n0, nc, false)
				return &Tandem{C: 11, Through: through, Cross: cross, MakeSched: mk}
			}

			rec, stats, err := build().Run(slots)
			if err != nil {
				t.Fatalf("%s: block run: %v", label, err)
			}
			refRec, refStats, err := runTandemRef(build(), slots)
			if err != nil {
				t.Fatalf("%s: ref run: %v", label, err)
			}
			requireSameStats(t, label, stats, refStats)
			requireSameRecorder(t, label, rec, refRec)
		}
	}
}

// TestTandemBlockLoopParityShapedHeterogeneous pins the engine on the
// configuration knobs the fast pass must not mishandle: a nil cross
// source in the middle of the path, and a non-default progress stride
// that is coprime with the block size (so block boundaries land
// mid-stride and must be re-aligned).
func TestTandemBlockLoopParityShapedHeterogeneous(t *testing.T) {
	const (
		h     = 4
		slots = 3100
	)
	for name, mk := range map[string]func(node int) Scheduler{
		"fifo-ring": func(int) Scheduler { return NewFIFO() },
		"edf": func(int) Scheduler {
			return NewEDF(map[core.FlowID]float64{ThroughFlow: 4, CrossFlow: 40})
		},
		"gps": func(int) Scheduler {
			g, err := NewGPS(map[core.FlowID]float64{ThroughFlow: 2, CrossFlow: 1})
			if err != nil {
				panic(err)
			}
			return g
		},
	} {
		label := name
		build := func() *Tandem {
			through, cross := mkTandemSources(7, h, 6, 12, false)
			cross[2] = nil // a hop with no cross traffic
			return &Tandem{
				C:             9,
				Through:       through,
				Cross:         cross,
				MakeSched:     mk,
				ProgressEvery: 700,
			}
		}

		var blockTicks, refTicks []int
		bt := build()
		bt.Progress = func(done, total int) { blockTicks = append(blockTicks, done) }
		rec, stats, err := bt.Run(slots)
		if err != nil {
			t.Fatalf("%s: block run: %v", label, err)
		}
		rt := build()
		rt.Progress = func(done, total int) { refTicks = append(refTicks, done) }
		refRec, refStats, err := runTandemRef(rt, slots)
		if err != nil {
			t.Fatalf("%s: ref run: %v", label, err)
		}
		requireSameStats(t, label, stats, refStats)
		requireSameRecorder(t, label, rec, refRec)
		if len(blockTicks) != len(refTicks) {
			t.Fatalf("%s: progress ticks %v != %v", label, blockTicks, refTicks)
		}
		for i := range refTicks {
			if blockTicks[i] != refTicks[i] {
				t.Fatalf("%s: progress ticks %v != %v", label, blockTicks, refTicks)
			}
		}
	}
}

// TestTandemBlockLoopParityCountAgg repeats the pin for the binomial
// count-chain aggregates, whose RNG consumption pattern differs from the
// per-flow draws.
func TestTandemBlockLoopParityCountAgg(t *testing.T) {
	const slots = 2200
	for name, mk := range map[string]func(node int) Scheduler{
		"fifo-ring": func(int) Scheduler { return NewFIFO() },
		"drr": func(int) Scheduler {
			d, err := NewDRR(map[core.FlowID]float64{ThroughFlow: 2, CrossFlow: 4})
			if err != nil {
				panic(err)
			}
			return d
		},
	} {
		build := func() *Tandem {
			through, cross := mkTandemSources(3, 3, 30, 60, true)
			return &Tandem{C: 20, Through: through, Cross: cross, MakeSched: mk}
		}
		rec, stats, err := build().Run(slots)
		if err != nil {
			t.Fatalf("%s: block run: %v", name, err)
		}
		refRec, refStats, err := runTandemRef(build(), slots)
		if err != nil {
			t.Fatalf("%s: ref run: %v", name, err)
		}
		requireSameStats(t, name, stats, refStats)
		requireSameRecorder(t, name, rec, refRec)
	}
}

// TestTandemBlockLoopParitySketchSink pins the streaming (sketch) sink
// path: the engine devirtualizes *measure.StreamRecorder, and the
// resulting summaries must match the reference loop's bit for bit.
func TestTandemBlockLoopParitySketchSink(t *testing.T) {
	const slots = 2100
	for name, mk := range map[string]func(node int) Scheduler{
		"fifo-ring": func(int) Scheduler { return NewFIFO() },
		"sp":        func(int) Scheduler { return NewSP(map[core.FlowID]int{ThroughFlow: 0, CrossFlow: 1}) },
	} {
		run := func(runner func(*Tandem, int) (*measure.DelayRecorder, Stats, error)) (measure.Summary, Stats) {
			through, cross := mkTandemSources(5, 3, 8, 16, false)
			sr := measure.NewStreamRecorder(measure.NewSketch())
			td := &Tandem{C: 11, Through: through, Cross: cross, MakeSched: mk, Sink: sr}
			rec, stats, err := runner(td, slots)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rec != nil {
				t.Fatalf("%s: sink run returned a recorder", name)
			}
			return sr.Finish(), stats
		}
		gotSum, gotStats := run((*Tandem).Run)
		wantSum, wantStats := run(runTandemRef)
		requireSameStats(t, name, gotStats, wantStats)

		for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
			gq, gerr := gotSum.Quantile(p)
			wq, werr := wantSum.Quantile(p)
			if gq != wq || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: Quantile(%g) = (%d,%v), ref (%d,%v)", name, p, gq, gerr, wq, werr)
			}
		}
		gm, _ := gotSum.Mean()
		wm, _ := wantSum.Mean()
		if gm != wm {
			t.Fatalf("%s: Mean %x != %x", name, gm, wm)
		}
		gmx, _ := gotSum.Max()
		wmx, _ := wantSum.Max()
		if gmx != wmx {
			t.Fatalf("%s: Max %d != %d", name, gmx, wmx)
		}
		gn, gb := gotSum.Samples()
		wn, wb := wantSum.Samples()
		if gn != wn || gb != wb {
			t.Fatalf("%s: Samples (%d,%x) != (%d,%x)", name, gn, gb, wn, wb)
		}
	}
}

// TestTandemBlockLoopParityProbePerNode pins the instrumented generic
// pass: probes force the engine off the FIFO fast path, probe
// observations must match the old loop's field for field (including the
// served total, now computed as s0+s1 instead of a map sum), and the
// per-node recorders must agree at every slot.
func TestTandemBlockLoopParityProbePerNode(t *testing.T) {
	const (
		h     = 3
		slots = 2300
	)
	for name, mk := range map[string]func(node int) Scheduler{
		"fifo-ring": func(int) Scheduler { return NewFIFO() },
		"bmux":      func(int) Scheduler { return NewBMUX(CrossFlow) },
	} {
		run := func(runner func(*Tandem, int) (*measure.DelayRecorder, Stats, error)) (*measure.DelayRecorder, Stats, []*measure.DelayRecorder, []parityObs) {
			through, cross := mkTandemSources(9, h, 8, 16, false)
			probe := &parityProbe{stride: 17}
			td := &Tandem{
				C: 11, Through: through, Cross: cross, MakeSched: mk,
				Probe:         probe,
				RecordPerNode: true,
			}
			rec, stats, err := runner(td, slots)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rec, stats, td.PerNode(), probe.obs
		}
		rec, stats, perNode, obs := run((*Tandem).Run)
		refRec, refStats, refPerNode, refObs := run(runTandemRef)

		requireSameStats(t, name, stats, refStats)
		requireSameRecorder(t, name, rec, refRec)
		if len(perNode) != len(refPerNode) {
			t.Fatalf("%s: perNode count %d != %d", name, len(perNode), len(refPerNode))
		}
		for i := range refPerNode {
			requireSameRecorder(t, fmt.Sprintf("%s/node%d", name, i), perNode[i], refPerNode[i])
		}
		if len(obs) != len(refObs) {
			t.Fatalf("%s: probe observations %d != %d", name, len(obs), len(refObs))
		}
		for i := range refObs {
			if obs[i] != refObs[i] {
				t.Fatalf("%s: probe obs %d: %+v != %+v", name, i, obs[i], refObs[i])
			}
		}
	}
}
