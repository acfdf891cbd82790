package core

import (
	"sync/atomic"

	"deltasched/internal/obs"
)

// OptProbe receives the optimizer's introspection counters: how many γ
// and α probes a bound cost, how often the path pricing table was
// rebuilt, how much inner-minimization and envelope work ran underneath.
// Within one search every probe is priced once — the searches never
// revisit a γ or an α (TestSearchesPriceEachProbeOnce). The one count
// of cache hits is SigmaReuses: the γ probes whose σ was replayed from
// the previous search at the same traffic, ε and scheduler class (the
// σ log, batch.go), as along an EDF fixed point. The runner installs
// one probe per process (backed by obs.Registry counters, so a
// -metrics-addr endpoint serves them live); nil fields discard their
// counts.
//
// The hot paths never touch the probe directly: they bump plain integer
// fields on their Scratch (or a local), and a single flush per top-level
// call batches the totals into these counters. Disabled telemetry
// therefore costs one atomic pointer load and a handful of integer
// increments per bound — the <2% envelope the benchmarks pin.
type OptProbe struct {
	DelayBoundCalls  *obs.Counter // top-level γ-optimized DelayBound solves
	GammaProbes      *obs.Counter // delayBoundAtGamma evaluations (grid + golden + final)
	GammaBatchProbes *obs.Counter // γ probes priced through the batched table-driven kernels
	InnerMinCalls    *obs.Counter // innerMinimize solves
	InnerCandidates  *obs.Counter // candidate breakpoints enumerated by innerMinimize
	InnerReplays     *obs.Counter // candidates the screen kept, priced exactly by the sweep
	EnvelopeSegs     *obs.Counter // envelope segments assembled and merged by pathBound
	AlphaSweeps      *obs.Counter // OptimizeAlphaFunc sweeps
	AlphaProbes      *obs.Counter // α evaluations priced
	EDFBisections    *obs.Counter // EDF fixed-point bisection iterations
	AdditiveProbes   *obs.Counter // additive-analysis γ evaluations
	PricerBuilds     *obs.Counter // path pricing tables built (pathKernel rebuilds)
	SigmaReuses      *obs.Counter // γ probes whose σ was replayed from the last search's log
	GammaSkips       *obs.Counter // EDF γ-grid probes skipped: a grid floor proved they cannot win

	// GammaMemoHits and AlphaMemoHits are never incremented: the γ and α
	// memos they counted never hit and are deleted. The fields stay only
	// because perfbench names them; ROADMAP's perf-gate item retires them
	// together with BENCHMARK.json's two memo-hit ratios.
	GammaMemoHits *obs.Counter
	AlphaMemoHits *obs.Counter
}

// optProbe is the process-wide probe seam. An atomic pointer rather than
// a plain global so concurrent sweep workers can run while a probe is
// installed or removed.
var optProbe atomic.Pointer[OptProbe]

// SetOptProbe installs the process-wide optimizer probe; nil removes it.
// Counts accumulated while no probe is installed are discarded.
func SetOptProbe(p *OptProbe) { optProbe.Store(p) }

// optStats are the per-Scratch (single-goroutine) counters of one
// top-level solve, flushed in one batch so the sweep loops pay integer
// increments, not atomics.
type optStats struct {
	delayBoundCalls  int64
	gammaProbes      int64
	gammaBatchProbes int64
	innerCalls       int64
	innerCands       int64
	innerReplays     int64
	envSegs          int64
	pricerBuilds     int64
	sigmaReuses      int64
}

// flushOptStats batches the accumulated counts into the installed probe
// (if any) and zeroes them.
func (s *Scratch) flushOptStats() {
	st := s.stats
	s.stats = optStats{}
	p := optProbe.Load()
	if p == nil {
		return
	}
	p.DelayBoundCalls.Add(st.delayBoundCalls)
	p.GammaProbes.Add(st.gammaProbes)
	p.GammaBatchProbes.Add(st.gammaBatchProbes)
	p.InnerMinCalls.Add(st.innerCalls)
	p.InnerCandidates.Add(st.innerCands)
	p.InnerReplays.Add(st.innerReplays)
	p.EnvelopeSegs.Add(st.envSegs)
	p.PricerBuilds.Add(st.pricerBuilds)
	p.SigmaReuses.Add(st.sigmaReuses)
}
