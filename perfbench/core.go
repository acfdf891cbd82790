package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/experiments"
	"deltasched/internal/obs"
	"deltasched/internal/scenario"
)

// The analytic layers are attributed by replaying every α search of the
// workload sequentially, on the benchmark's goroutine, with the probe
// installed: the figure points through experiments.Setup.BoundModel
// (EvalPoint's body) and the tandem bound through core.OptimizeAlpha,
// exactly as the scenarios call them. The replay yields, per search,
// its inclusive time and exact probe counts. Each search's callees are
// then timed once on the search's own configuration — at the last α it
// priced — and multiplied by the counts:
//
//	EDF fixed point   core.EDFProvisioned      × EDF solves
//	additive bound    core.AdditiveBound       × additive solves
//	γ search          core.DelayBound          × DelayBound calls
//	γ probes          Scratch.DelayBoundAtGammas per γ × batched probes,
//	                  Scratch.DelayBoundAtGamma × full probes
//	envelope pricing  envelope.PathPricer.BoundAt per γ × γ probes
//
// A layer's self time is its inclusive time minus its callees'; the
// residual of the outermost estimate goes to the caller (the α search).

// coreStats accumulates the replay's attribution.
type coreStats struct {
	alphaSelf, edfSelf, addSelf    float64
	gammaSelf, innerSolve, pricing float64
	counts                         probeCounts // Σ replay probe counts
	pairs                          [][2]float64
}

// search is one α search of the workload.
type search struct {
	class  string // bmux, fifo, edf, additive
	sched  experiments.Scheduler
	h      int
	n0, nc float64
	tandem bool    // the tandem bound (core.OptimizeAlpha at fixed Δ)
	delta  float64 // tandem Δ_{0,c}
}

// alphaLog is a traffic model that records the (n, α) of every
// envelope it prices.
type alphaLog struct {
	src   envelope.MMOO
	pairs [][2]float64
}

func (l *alphaLog) EBBAggregate(n, a float64) (envelope.EBB, error) {
	l.pairs = append(l.pairs, [2]float64{n, a})
	return l.src.EBBAggregate(n, a)
}

// searches enumerates the workload's α searches.
func searches(w workload) ([]search, error) {
	if t := w.tandem; t != nil {
		_, delta, err := scenario.SchedulerFor(t.sched, t.edfD0, t.edfDc, 1, 1)
		if err != nil {
			return nil, err
		}
		return []search{{class: t.sched, h: t.h, n0: tandemN0, nc: tandemNc, tandem: true, delta: delta}}, nil
	}
	var out []search
	for _, f := range paperFigures {
		sc, err := scenario.Get("fig" + f.id)
		if err != nil {
			return nil, err
		}
		pts, err := sc.Points(scenario.Config{"quick": true})
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			sp := pt.Data.(experiments.SweepPoint)
			out = append(out, search{class: schedClass(sp.Sched), sched: sp.Sched, h: sp.H, n0: sp.N0, nc: sp.Nc})
		}
	}
	return out, nil
}

// replayCore replays and attributes every α search of the workload.
func replayCore(w workload, root *obs.Span, pr probe) (*coreStats, error) {
	ss, err := searches(w)
	if err != nil {
		return nil, err
	}
	sp := root.Child("core.replay")
	defer sp.End()
	cs := &coreStats{}
	for _, s := range ss {
		if err := cs.replay(s, sp, pr); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// replay runs one α search, then prices its callees.
func (cs *coreStats) replay(s search, parent *obs.Span, pr probe) error {
	setup := experiments.PaperSetup()
	eps, capacity := setup.Eps, setup.Capacity
	if s.tandem {
		eps, capacity = tandemEps, tandemC
	}
	lg := &alphaLog{src: setup.Source}
	sp := parent.Child("α search " + s.class)
	before := pr.snapshot()
	t0 := time.Now()
	var err error
	if s.tandem {
		memo, merr := envelope.NewEBMemo(setup.Source)
		if merr != nil {
			return merr
		}
		_, err = core.OptimizeAlpha(func(a float64) (core.PathConfig, error) {
			lg.pairs = append(lg.pairs, [2]float64{s.n0, a}, [2]float64{s.nc, a})
			th, err := memo.EBBAggregate(s.n0, a)
			if err != nil {
				return core.PathConfig{}, err
			}
			cr, err := memo.EBBAggregate(s.nc, a)
			if err != nil {
				return core.PathConfig{}, err
			}
			return core.PathConfig{H: s.h, C: capacity, Through: th, Cross: cr, Delta0c: s.delta}, nil
		}, eps, setup.AlphaLo, setup.AlphaHi)
	} else {
		_, err = setup.BoundModel(lg, s.sched, s.h, s.n0, s.nc)
	}
	tEval := time.Since(t0).Seconds()
	sp.End()
	cnt := pr.snapshot().sub(before)
	cs.counts = cs.counts.add(cnt)
	cs.pairs = append(cs.pairs, lg.pairs...)
	// An α search that found no bound is a legitimate figure gap (the CLI
	// pass already failed on any other error); its time is all α search.
	_ = err

	u, ok := unitCosts(s, lg, setup.Source, capacity, eps, pr)
	if !ok {
		cs.alphaSelf += tEval
		return nil
	}
	n := func(x int64) float64 { return float64(x) }
	tDB := n(cnt.dbCalls) * u.delayBound
	full := n(cnt.dbCalls) // one full-θ γ evaluation per DelayBound, the rest batched
	tProbe := math.Max(n(cnt.gammaProbes)-full, 0)*u.batchProbe + full*u.fullProbe
	tPrice := n(cnt.gammaProbes) * u.price
	switch {
	case s.class == "edf" && !s.tandem:
		tEDF := ratio(n(cnt.dbCalls), u.dbPerEDF) * u.edf
		cs.alphaSelf += tEval - tEDF
		cs.edfSelf += tEDF - tDB
	case s.class == "additive":
		tAdd := ratio(n(cnt.additiveProbes), u.probesPerAdd) * u.additive
		cs.alphaSelf += tEval - tAdd
		cs.addSelf += tAdd
	default:
		cs.alphaSelf += tEval - tDB
	}
	cs.gammaSelf += tDB - tProbe
	cs.innerSolve += tProbe - tPrice
	cs.pricing += tPrice
	return nil
}

// units are one search's per-call costs in seconds, with the per-call
// counts that convert the replay's totals into call numbers.
type units struct {
	edf, dbPerEDF          float64
	additive, probesPerAdd float64
	delayBound             float64
	batchProbe, fullProbe  float64
	price                  float64
}

// gammaGrid is DelayBound's coarse γ grid: gmax·i/49, i = 1..48.
func gammaGrid(gmax float64) []float64 {
	g := make([]float64, 48)
	for i := range g {
		g[i] = gmax * float64(i+1) / 49
	}
	return g
}

// unitCosts times the search's callees on its own configuration at the
// last α it priced that admits a bound (looking back over at most eight
// α values); ok is false when none does.
func unitCosts(s search, lg *alphaLog, src envelope.MMOO, capacity, eps float64, pr probe) (units, bool) {
	tried := 0
	for i := len(lg.pairs) - 1; i >= 1 && tried < 8; i -= 2 {
		a := lg.pairs[i][1]
		if i+2 < len(lg.pairs) && lg.pairs[i+2][1] == a {
			continue
		}
		tried++
		if u, ok := unitCostsAt(s, a, src, capacity, eps, pr); ok {
			return u, true
		}
	}
	return units{}, false
}

func unitCostsAt(s search, alpha float64, src envelope.MMOO, capacity, eps float64, pr probe) (units, bool) {
	th, err1 := src.EBBAggregate(s.n0, alpha)
	cr, err2 := src.EBBAggregate(s.nc, alpha)
	if err1 != nil || err2 != nil {
		return units{}, false
	}
	cfg := core.PathConfig{H: s.h, C: capacity, Through: th, Cross: cr}
	var u units
	switch {
	case s.tandem:
		cfg.Delta0c = s.delta
	case s.class == "bmux":
		cfg.Delta0c = math.Inf(1)
	case s.class == "edf":
		ratioC, _ := s.sched.DeadlineRatio()
		var d0 float64
		before := pr.snapshot()
		u.edf = minOf(2, func() (err error) { _, d0, err = core.EDFProvisioned(cfg, eps, ratioC); return err })
		if u.edf < 0 {
			return units{}, false
		}
		u.dbPerEDF = float64(pr.snapshot().sub(before).dbCalls) / 2
		cfg.Delta0c = d0 * (1 - ratioC)
	case s.class == "additive":
		before := pr.snapshot()
		u.additive = minOf(2, func() error { _, err := core.AdditiveBound(cfg, eps); return err })
		if u.additive < 0 {
			return units{}, false
		}
		u.probesPerAdd = float64(pr.snapshot().sub(before).additiveProbes) / 2
		return u, true
	}

	var res core.Result
	u.delayBound = minOf(3, func() (err error) { res, err = core.DelayBound(cfg, eps); return err })
	if u.delayBound < 0 {
		return units{}, false
	}

	grid := gammaGrid(cfg.GammaMax())
	var sc core.Scratch
	dst, err := sc.DelayBoundAtGammas(cfg, eps, grid, nil)
	if err != nil {
		return units{}, false
	}
	u.batchProbe = timePer(len(grid), func() { dst, _ = sc.DelayBoundAtGammas(cfg, eps, grid, dst) })
	u.fullProbe = timePer(1, func() { _, _ = sc.DelayBoundAtGamma(cfg, eps, res.Gamma) })
	pp := envelope.NewPathPricer(th.Bound(), cr.Bound(), s.h)
	var sink float64
	u.price = timePer(len(grid), func() {
		for _, g := range grid {
			b := pp.BoundAt(g)
			sink += b.SigmaFor(eps)
		}
	})
	if math.IsNaN(sink) {
		fmt.Fprintln(os.Stderr, "perfbench: NaN while pricing envelopes")
	}
	return u, true
}

// Unit costs are minima over repeats: they multiply counts of up to
// hundreds of thousands, so one timing window stretched by a descheduled
// thread must not stand in for them.

// minOf returns the fastest of k timed calls of fn in seconds, or -1
// when fn fails.
func minOf(k int, fn func() error) float64 {
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return -1
		}
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return best
}

// timePer returns the seconds per unit of work of fn, which performs
// `per` units a call: the fastest of five windows of at least 100µs.
func timePer(per int, fn func()) float64 {
	best := math.Inf(1)
	for w := 0; w < 5; w++ {
		calls := 0
		t0 := time.Now()
		for calls == 0 || time.Since(t0) < 100*time.Microsecond {
			fn()
			calls++
		}
		best = math.Min(best, time.Since(t0).Seconds()/float64(calls*per))
	}
	return best
}

// report emits the core and envelope metrics: counts from the traced
// CLI pass, self times from the replay. The replay must count exactly
// what the traced pass counted, a self-check that fails the run.
func (cs *coreStats) report(c probeCounts, res *result, put func(string, float64, string)) {
	res.selfCheck(cs.counts == c, "replay counts %+v differ from the traced pass %+v", cs.counts, c)
	f := func(x int64) float64 { return float64(x) }
	put("core.alpha_probes", f(c.alphaProbes), "count")
	put("core.alpha_memo_hit_ratio", ratio(f(c.alphaMemo), f(c.alphaProbes+c.alphaMemo)), "1")
	put("core.edf_bisections", f(c.edfBisections), "count")
	put("core.additive_probes", f(c.additiveProbes), "count")
	put("core.delaybound_calls", f(c.dbCalls), "count")
	put("core.gamma_probes", f(c.gammaProbes), "count")
	put("core.gamma_batch_probes", f(c.gammaBatch), "count")
	put("core.gamma_memo_hit_ratio", ratio(f(c.gammaMemo), f(c.gammaProbes+c.gammaMemo)), "1")
	put("core.innermin_calls", f(c.innerCalls), "count")
	put("core.innermin_candidates", f(c.innerCands), "count")
	put("core.envelope_segments", f(c.envSegs), "count")
	put("core.alpha_self_s", cs.alphaSelf, "s")
	put("core.edf_self_s", cs.edfSelf, "s")
	put("core.additive_self_s", cs.addSelf, "s")
	put("core.gamma_search_self_s", cs.gammaSelf, "s")
	put("core.innersolve_s", cs.innerSolve, "s")
	put("core.innersolve_ns_per_candidate", ratio(cs.innerSolve*1e9, f(cs.counts.innerCands)), "ns")
	put("envelope.path_pricing_s", cs.pricing, "s")
	put("envelope.ebb_aggregate_ns", cs.ebbAggregateNs(), "ns")
}

// ebbAggregateNs times MMOO.EBBAggregate over the (n, α) pairs the
// replay priced.
func (cs *coreStats) ebbAggregateNs() float64 {
	if len(cs.pairs) == 0 {
		return 0
	}
	src := envelope.PaperSource()
	var sink float64
	per := timePer(len(cs.pairs), func() {
		for _, p := range cs.pairs {
			e, err := src.EBBAggregate(p[0], p[1])
			if err == nil {
				sink += e.Rho
			}
		}
	})
	if math.IsNaN(sink) {
		fmt.Fprintln(os.Stderr, "perfbench: NaN envelope rate")
	}
	return per * 1e9
}
