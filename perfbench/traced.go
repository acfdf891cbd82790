package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/obs"
)

// traced runs the per-layer breakdown of one workload:
//
//  1. pairs of untraced and traced passes through the CLI path — the
//     traced pass spans runner.App.Main/Run, every scenario.Evaluate and
//     the teardown from these files, with the optimizer probe installed
//     on benchmark-owned counters — for the runner and scenario metrics,
//     the core counts and obs.trace_overhead_frac;
//  2. a sequential replay of every α search of the workload (core.go),
//     attributing its time to the analytic layers;
//  3. for the tandem workloads, one replication taken apart into fill,
//     serve, record and summary (simlayers.go).
//
// The probe is removed again before returning, so nothing outlives the
// traced run. The spans are kept in memory and written as a Chrome
// trace at the end.
func traced(w workload, seed int64, window time.Duration) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	tracer := obs.NewTracer()
	_, root := tracer.Root(context.Background(), "perfbench "+w.name)
	probe := newProbe()
	defer core.SetOptProbe(nil)
	start := time.Now()
	if err := res.reference(w); err != nil {
		return res, err
	}

	var (
		overheads []float64 // traced ÷ untraced wall − 1, per pair
		tp        *pass
		counts    probeCounts
	)
	for len(overheads) == 0 || time.Since(start)*time.Duration(len(overheads)+1)/time.Duration(len(overheads)) <= window/2 {
		plain, err := fullPass(w, seed)
		if err != nil {
			return res, err
		}
		res.tally(plain)

		p, err := newPass(w, seed, false)
		if err != nil {
			return res, err
		}
		p.root = root.Child("traced pass")
		runtime.GC()
		before := probe.snapshot()
		core.SetOptProbe(probe.p)
		p.err = p.invoke()
		core.SetOptProbe(nil)
		p.root.End()
		p.cleanup()
		res.tally(p)
		overheads = append(overheads, p.wallSeconds()/plain.wallSeconds()-1)
		if tp == nil {
			tp, counts = p, probe.snapshot().sub(before)
		}
	}
	if tp.err != nil {
		return res, fmt.Errorf("traced pass: %w", tp.err)
	}
	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("obs.trace_overhead_frac", median(overheads), "1")
	runnerMetrics(tp, put)
	scenarioMetrics(tp, put)

	core.SetOptProbe(probe.p)
	cs, err := replayCore(w, root, probe)
	core.SetOptProbe(nil)
	if err != nil {
		return res, err
	}
	cs.report(counts, &res, put)

	var sm simLayers
	if w.tandem != nil {
		budget := window - time.Since(start)
		if sm, err = decomposeSim(w, seed, tp.tandem, root, budget, &res); err != nil {
			return res, err
		}
	}
	sm.report(tp.tandem, put)

	root.End()
	if err := writeTrace(tracer, w, seed); err != nil {
		return res, err
	}
	return res, nil
}

// runnerMetrics reports the runner layer of the traced pass.
func runnerMetrics(p *pass, put func(string, float64, string)) {
	var busy, capacity float64
	for _, e := range p.evals {
		busy += e.dur.Seconds()
	}
	for _, r := range p.runs {
		capacity += r.wall.Seconds() * float64(r.workers)
	}
	put("runner.worker_busy_frac", ratio(busy, capacity), "1")
	put("runner.teardown_ms", p.end.Sub(p.bodyDone).Seconds()*1e3, "ms")
	put("runner.checkpoint_bytes", float64(p.checkpointBytes), "B")
}

// scenarioMetrics reports the per-point Evaluate timings of the traced
// pass.
func scenarioMetrics(p *pass, put func(string, float64, string)) {
	perClass := map[string]float64{}
	ms := make([]float64, len(p.evals))
	for i, e := range p.evals {
		ms[i] = e.dur.Seconds() * 1e3
		perClass[e.class] += e.dur.Seconds()
	}
	put("scenario.points", float64(p.points), "count")
	put("scenario.point_p50_ms", nearestRank(ms, 0.5), "ms")
	put("scenario.point_p90_ms", nearestRank(ms, 0.9), "ms")
	put("scenario.point_max_ms", nearestRank(ms, 1), "ms")
	for _, c := range []string{"bmux", "fifo", "edf", "additive"} {
		put("scenario.evaluate_s."+c, perClass[c], "s")
	}
}

// writeTrace writes the run's spans as a Chrome trace under
// .bench_build/trace.
func writeTrace(t *obs.Tracer, w workload, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := t.WriteChromeTraceFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return nil
}

// probe is the optimizer probe on benchmark-owned counters.
type probe struct {
	p *core.OptProbe
}

// probeCounts is a snapshot of the probe's counters.
type probeCounts struct {
	dbCalls, gammaProbes, gammaBatch, gammaMemo, innerCalls, innerCands, envSegs int64
	alphaSweeps, alphaProbes, alphaMemo, edfBisections, additiveProbes           int64
}

func newProbe() probe {
	r := obs.NewRegistry()
	c := func(name string) *obs.Counter { return r.Counter(name, name, nil) }
	return probe{p: &core.OptProbe{
		DelayBoundCalls:  c("delaybound_calls"),
		GammaProbes:      c("gamma_probes"),
		GammaBatchProbes: c("gamma_batch_probes"),
		GammaMemoHits:    c("gamma_memo_hits"),
		InnerMinCalls:    c("innermin_calls"),
		InnerCandidates:  c("innermin_candidates"),
		EnvelopeSegs:     c("envelope_segments"),
		AlphaSweeps:      c("alpha_sweeps"),
		AlphaProbes:      c("alpha_probes"),
		AlphaMemoHits:    c("alpha_memo_hits"),
		EDFBisections:    c("edf_bisections"),
		AdditiveProbes:   c("additive_probes"),
	}}
}

func (pr probe) snapshot() probeCounts {
	p := pr.p
	return probeCounts{
		dbCalls: p.DelayBoundCalls.Load(), gammaProbes: p.GammaProbes.Load(),
		gammaBatch: p.GammaBatchProbes.Load(), gammaMemo: p.GammaMemoHits.Load(),
		innerCalls: p.InnerMinCalls.Load(), innerCands: p.InnerCandidates.Load(),
		envSegs: p.EnvelopeSegs.Load(), alphaSweeps: p.AlphaSweeps.Load(),
		alphaProbes: p.AlphaProbes.Load(), alphaMemo: p.AlphaMemoHits.Load(),
		edfBisections: p.EDFBisections.Load(), additiveProbes: p.AdditiveProbes.Load(),
	}
}

func (a probeCounts) sub(b probeCounts) probeCounts {
	return probeCounts{
		a.dbCalls - b.dbCalls, a.gammaProbes - b.gammaProbes, a.gammaBatch - b.gammaBatch,
		a.gammaMemo - b.gammaMemo, a.innerCalls - b.innerCalls, a.innerCands - b.innerCands,
		a.envSegs - b.envSegs, a.alphaSweeps - b.alphaSweeps, a.alphaProbes - b.alphaProbes,
		a.alphaMemo - b.alphaMemo, a.edfBisections - b.edfBisections, a.additiveProbes - b.additiveProbes,
	}
}

func (a probeCounts) add(b probeCounts) probeCounts {
	var zero probeCounts
	return a.sub(zero.sub(b))
}
