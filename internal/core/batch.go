package core

import (
	"math"
	"sync"

	"deltasched/internal/envelope"
)

// This file holds the table-driven γ kernel: the γ-independent structure
// of the path bound — the merged decay w = Σ 1/α_j and the per-term log
// weights — is priced into an envelope.PathPricer held in the Scratch,
// and every γ probe then pays only the γ-dependent exponentials. Each
// search builds the table once, after validation (buildPricer), and an
// EDF fixed point builds one for all of its searches. A D-only probe
// variant skips the θ-vector fill the sweeps never read. One γ search
// never revisits a γ (TestSearchesPriceEachProbeOnce), so each probe is
// priced once, by dOnlyAtGamma, with no cache in front of it.
//
// Consecutive searches of one EDF fixed point do revisit: σ(γ) depends
// on neither C nor a finite Δ_{0,c}, and γmax does not depend on a
// finite Δ_{0,c}, so the ~32 searches of one fixed point probe the same
// γ grid and, as the bisection converges, the same golden-section
// sequence. The fixed point's state (fixedPoint, edf.go) therefore logs
// σ per probe number, and dOnlyAtGamma replays it when the logged probe
// at the same number had the same γ, bit for bit; the inner solve still
// runs at every probe. The replays are counted (core_sigma_reuses_total).
// Outside a fixed point nothing is logged or replayed.
//
// Every kernel replays the scalar arithmetic expression for expression,
// so results stay bit-identical to the pre-table implementation; see
// batch_test.go, which pins the equivalence against verbatim copies of
// the old code.

// buildPricer prices the γ-independent structure of cfg's path bound
// into s.pricer, which pathBound reads at every γ probe. Δ_{0,c} and C
// do not enter the table, so one build serves every search of an EDF
// fixed point. Builds are counted (core_path_pricer_builds_total).
func (s *Scratch) buildPricer(cfg PathConfig) {
	s.stats.pricerBuilds++
	s.pricer = envelope.NewPathPricer(
		envelope.ExpBound{M: cfg.Through.M, Alpha: cfg.Through.Alpha},
		envelope.ExpBound{M: cfg.Cross.M, Alpha: cfg.Cross.Alpha},
		cfg.H,
	)
}

// dOnlyAtGamma is the sweep probe numbered n (gammaSearch numbers its
// probes): delayBoundAtGamma reduced to the delay value. It prices σ,
// or replays it from the σ log of fp, the running EDF fixed point (nil
// outside one), and runs the inner solve without materializing θ — the
// γ sweeps only compare D values, and only the winning γ is priced in
// full afterwards. Infeasible γ maps to +Inf.
func (s *Scratch) dOnlyAtGamma(cfg PathConfig, eps float64, fp *fixedPoint, n int, gamma float64) float64 {
	s.stats.gammaProbes++
	s.stats.gammaBatchProbes++
	if gamma <= 0 || gamma >= cfg.GammaMax() {
		return math.Inf(1)
	}
	sigma, ok := fp.loggedSigma(n, gamma)
	if ok {
		s.stats.sigmaReuses++
	} else {
		sigma = s.pathBound(cfg, gamma).SigmaFor(eps)
		fp.logSigma(n, gamma, sigma)
	}
	d, _ := s.innerSolve(cfg.H, cfg.C, gamma, cfg.Cross.Rho, cfg.Delta0c, sigma)
	return d
}

// DelayBoundAtGammas is the scratch-reusing batch probe: the results
// are appended to dst[:0] and the Theta buffers of dst's existing
// entries are recycled, so a caller that round-trips the returned slice
// runs allocation-free at steady state. The configuration is validated
// once and the envelope pricing table is built once for the whole grid.
func (s *Scratch) DelayBoundAtGammas(cfg PathConfig, eps float64, gammas []float64, dst []Result) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	defer s.flushOptStats()
	s.buildPricer(cfg)
	out := dst[:0]
	for _, g := range gammas {
		r, err := s.delayBoundAtGamma(nil, cfg, eps, g)
		if err != nil {
			return nil, err
		}
		var buf []float64
		if len(out) < len(dst) {
			buf = dst[len(out)].Theta[:0]
		}
		r.Theta = append(buf, r.Theta...)
		out = append(out, r)
	}
	return out, nil
}

// scratchPool backs the package-level entry points: DelayBound and
// friends documented as "fresh Scratch per call" now draw warmed-up
// buffer sets from this pool instead of allocating them anew, which is
// what keeps the package-level hot path at a couple of allocations per
// solve. Results handed out by pool users must not alias pooled
// buffers — callers clone Theta before Put (see un-alias sites).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

func putScratch(s *Scratch) { scratchPool.Put(s) }
