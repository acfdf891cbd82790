// Micro-benchmarks for the computational kernels: the analytic bound
// optimizers and the simulator's slot loop. `go test -bench=. -benchmem`
// runs them all. The end-to-end figure path (cmd/paperfigs, Figs. 2–4) is
// timed by perfbench's figs-quick workload.
package main

import (
	"context"
	"fmt"
	"math"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/minplus"
	"deltasched/internal/obs"
	"deltasched/internal/randx"
	"deltasched/internal/scenario"
	"deltasched/internal/sim"
	"deltasched/internal/traffic"
)

// BenchmarkDelayBound measures one full γ-optimized end-to-end bound.
func BenchmarkDelayBound(b *testing.B) {
	cfg := core.PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DelayBound(cfg, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayBoundH240 measures one FIFO bound on a long path, where
// each γ probe's O(H²) breakpoint sweep dominates: the long-path regime
// that delaybound -H 480 runs.
func BenchmarkDelayBoundH240(b *testing.B) {
	cfg := core.PathConfig{
		H:       240,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DelayBound(cfg, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayBoundH960 is BenchmarkDelayBoundH240 at H = 960, where
// the inner solve's screen, not its exact sweep, sets the cost of each
// γ probe.
func BenchmarkDelayBoundH960(b *testing.B) {
	cfg := core.PathConfig{
		H:       960,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DelayBound(cfg, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayBoundBatched measures the batch γ-grid API: a 48-point
// grid priced in one Scratch.DelayBoundAtGammas call with the result
// slice round-tripped as dst, the allocation-free steady state of a
// figure sweep. The per-γ metric is directly comparable to
// BenchmarkInnerMinimize's single-probe cost.
func BenchmarkDelayBoundBatched(b *testing.B) {
	cfg := core.PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: 0,
	}
	gmax := cfg.GammaMax()
	gammas := make([]float64, 0, 48)
	for i := 1; i <= 48; i++ {
		gammas = append(gammas, gmax*float64(i)/49)
	}
	var s core.Scratch
	dst, err := s.DelayBoundAtGammas(cfg, 1e-9, gammas, nil) // warm the buffers
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = s.DelayBoundAtGammas(cfg, 1e-9, gammas, dst)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gammas)), "ns/gamma")
}

// BenchmarkInnerMinimize measures the exact solver for the optimization
// problem of Eq. (38) in isolation, through a reused core.Scratch — the
// steady-state regime of the γ-sweeps, which must stay at 0 allocs/op
// (pinned by internal/core's TestDelayBoundAtGammaAllocFree).
func BenchmarkInnerMinimize(b *testing.B) {
	cfg := core.PathConfig{
		H:       20,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: -5,
	}
	var s core.Scratch
	if _, err := s.DelayBoundAtGamma(cfg, 1e-9, 0.5); err != nil { // warm the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DelayBoundAtGamma(cfg, 1e-9, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolve measures exact min-plus convolution of piecewise-
// linear curves.
func BenchmarkConvolve(b *testing.B) {
	f := minplus.Min(minplus.Affine(2, 30), minplus.Min(minplus.Affine(1.2, 60), minplus.Affine(0.8, 100)))
	g := minplus.Max(minplus.RateLatency(5, 4), minplus.RateLatency(9, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = minplus.Convolve(f, g)
	}
}

// BenchmarkEffectiveBandwidth measures the closed-form MMOO effective
// bandwidth used inside every α-sweep iteration.
func BenchmarkEffectiveBandwidth(b *testing.B) {
	m := envelope.PaperSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.EffectiveBandwidth(0.01 + float64(i%100)*1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSlots measures tandem simulation throughput in
// slots/op for the Fig. 1 topology at moderate load.
func BenchmarkSimulatorSlots(b *testing.B) {
	tan := benchTandem(b, false, 3, 60)
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slotsPerOp, "slots/op")
}

// BenchmarkSimulatorSlotsH30 is BenchmarkSimulatorSlots at tandem depth
// H = 30 — the long paths of the paper's title — so per-node serve cost
// and depth scaling of the slot loop are tracked, not just the 3-node
// figure topology.
func BenchmarkSimulatorSlotsH30(b *testing.B) {
	tan := benchTandem(b, false, 30, 60)
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slotsPerOp, "slots/op")
}

// BenchmarkSimulatorSlotsEDF is BenchmarkSimulatorSlots with EDF nodes
// (deadlines 5 and 50 slots, the netsim defaults): every node runs on the
// Precedence executor's per-flow lanes, so this times the serve pass that
// any non-FIFO discipline, probe or per-node recording takes instead of
// the fused all-FIFO pass. Per-source fill dominates it at H = 3; see
// BenchmarkSimulatorSlotsEDFH30 for a serve-dominated shape.
func BenchmarkSimulatorSlotsEDF(b *testing.B) {
	tan := benchTandem(b, false, 3, 60)
	tan.MakeSched = func(int) sim.Scheduler {
		return sim.NewEDF(map[core.FlowID]float64{sim.ThroughFlow: 5, sim.CrossFlow: 50})
	}
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slotsPerOp, "slots/op")
}

// BenchmarkSimulatorSlotsEDFH30 is the shape of netsim's EDF workload at
// H = 30: count aggregates (30 through, 80 cross flows per hop) on
// 20 kbit/slot links, EDF deadlines 5 and 50 slots, and a streaming
// sketch sink. The count chain makes fill cheap, so this weights the
// generic serve pass over 30 Precedence nodes far more than
// BenchmarkSimulatorSlotsEDF does.
func BenchmarkSimulatorSlotsEDFH30(b *testing.B) {
	tan := benchTandem(b, true, 30, 80)
	tan.MakeSched = func(int) sim.Scheduler {
		return sim.NewEDF(map[core.FlowID]float64{sim.ThroughFlow: 5, sim.CrossFlow: 50})
	}
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		sr := measure.NewStreamRecorder(measure.NewSketch())
		tan.Sink = sr
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
		sr.Finish()
	}
	b.ReportMetric(slotsPerOp, "slots/op")
}

// BenchmarkSimulatorSlotsCountAgg is BenchmarkSimulatorSlots with the
// O(1)-per-slot ON-count aggregates instead of per-flow draws (ISSUE 4):
// the same topology and the same arrival law, sampled with two binomial
// draws per aggregate per slot instead of 210 Bernoulli draws.
func BenchmarkSimulatorSlotsCountAgg(b *testing.B) {
	tan := benchTandem(b, true, 3, 60)
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slotsPerOp, "slots/op")
}

// BenchmarkReplicatedTandem measures the replicated-execution layer
// (ISSUE 5) end to end through the tandem scenario: a fig2-scale point
// (Fig. 1 topology, count aggregates) with its slot budget split into 8
// replications, run at 1/2/4/8 workers, against the reps=1 single run of
// the same budget. On a machine with enough cores, reps=8 at 8 workers
// approaches the per-replication wall-clock — the near-linear speedup
// the replication layer exists for; the recorded curve is whatever the
// benchmarking machine's core count allows.
func BenchmarkReplicatedTandem(b *testing.B) {
	sc, err := scenario.Get("tandem")
	if err != nil {
		b.Fatal(err)
	}
	const totalSlots = 80000
	run := func(b *testing.B, reps, workers int) {
		cfg := scenario.Config{
			"H": 3, "n0": 30, "nc": 60, "sched": "fifo", "agg": "count",
			"slots": totalSlots, "reps": reps, "simworkers": workers, "seed": int64(9),
			"probe-every": 0,
		}
		pts, err := sc.Points(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.Evaluate(context.Background(), cfg, pts[0], scenario.Sim); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(totalSlots, "slots/op")
	}
	b.Run("reps=1", func(b *testing.B) { run(b, 1, 1) })
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("reps=8/workers=%d", w), func(b *testing.B) { run(b, 8, w) })
	}
}

// benchTandem builds the Fig. 1 topology used by the simulator
// benchmarks: H FIFO nodes, 30 through + H×nc cross MMOO flows, on the
// same devirtualized RNG the scenario runner uses (stream-identical to
// the historical rand.New(rand.NewSource(9))). countAgg selects the O(1)
// ON-count chain over per-flow draws.
func benchTandem(b *testing.B, countAgg bool, h, nc int) *sim.Tandem {
	b.Helper()
	m := envelope.PaperSource()
	rng := randx.NewRand(9)
	mkAgg := func(n int) (traffic.Source, error) {
		if countAgg {
			return traffic.NewMMOOCountAggregate(m, n, rng)
		}
		return traffic.NewMMOOAggregate(m, n, rng)
	}
	through, err := mkAgg(30)
	if err != nil {
		b.Fatal(err)
	}
	cross := make([]traffic.Source, h)
	for i := range cross {
		cs, err := mkAgg(nc)
		if err != nil {
			b.Fatal(err)
		}
		cross[i] = cs
	}
	return &sim.Tandem{C: 20, Through: through, Cross: cross,
		MakeSched: func(int) sim.Scheduler { return sim.NewFIFO() }}
}

// BenchmarkNetworkRunInstrumented is BenchmarkSimulatorSlots with a
// per-slot observability probe attached: the gap between the two is the
// cost of *enabled* instrumentation. The disabled-probe overhead — the
// cost the probe field adds when nil — is BenchmarkSimulatorSlots against
// the pre-observability seed, measured at < 2% (one nil check per slot;
// see DESIGN.md's Observability section).
func BenchmarkNetworkRunInstrumented(b *testing.B) {
	tan := benchTandem(b, false, 3, 60)
	probe := &obs.SimProbe{}
	tan.Probe = probe
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slotsPerOp, "slots/op")
	if len(probe.Summaries()) != 3 {
		b.Fatal("probe recorded nothing")
	}
}

// BenchmarkNetworkRunSampledProbe is the instrumented run at a 100-slot
// sampling stride — the recommended setting for long production runs.
func BenchmarkNetworkRunSampledProbe(b *testing.B) {
	tan := benchTandem(b, false, 3, 60)
	tan.Probe = &obs.SimProbe{Every: 100}
	b.ReportAllocs()
	b.ResetTimer()
	const slotsPerOp = 2000
	for i := 0; i < b.N; i++ {
		if _, _, err := tan.Run(slotsPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slotsPerOp, "slots/op")
}

// BenchmarkEDFProvisioning measures the deadline fixed point of the
// paper's EDF configuration.
func BenchmarkEDFProvisioning(b *testing.B) {
	cfg := core.PathConfig{
		H:       5,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.EDFProvisioned(cfg, 1e-9, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEDFProvisioningH30 is BenchmarkEDFProvisioning at the
// H = 30 end of the paper's Figs. 2–4, whose ~30 bisection steps
// re-solve one traffic description at different Δ_{0,c}.
func BenchmarkEDFProvisioningH30(b *testing.B) {
	cfg := core.PathConfig{
		H:       30,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.EDFProvisioned(cfg, 1e-9, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEDFProvisioningRatioHalf is BenchmarkEDFProvisioning with
// Example 2's d*_c = d*_0/2: Δ_{0,c} > 0, which rises with the bound,
// so the fixed point's grid floor sits at the bracket's lower end, where
// the ratio-10 benchmarks keep it at the upper end.
func BenchmarkEDFProvisioningRatioHalf(b *testing.B) {
	cfg := core.PathConfig{
		H:       5,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.EDFProvisioned(cfg, 1e-9, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdditiveBound measures the node-by-node baseline of Fig. 4.
func BenchmarkAdditiveBound(b *testing.B) {
	cfg := core.PathConfig{
		H:       10,
		C:       100,
		Through: envelope.EBB{M: 1, Rho: 15, Alpha: 0.1},
		Cross:   envelope.EBB{M: 1, Rho: 35, Alpha: 0.1},
		Delta0c: math.Inf(1),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.AdditiveBound(cfg, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
