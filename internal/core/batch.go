package core

import (
	"math"
	"sync"

	"deltasched/internal/envelope"
)

// This file holds the table-driven γ kernel: the γ-independent structure
// of the path bound — the merged decay w = Σ 1/α_j and the per-term log
// weights — is priced once per (H, through, cross) into an
// envelope.PathPricer held in the Scratch, and every γ probe then pays
// only the γ-dependent exponentials. A D-only probe variant skips the
// θ-vector fill the sweeps never read. One γ search never revisits a γ
// (TestSearchesPriceEachProbeOnce), so each probe is priced once, by
// dOnlyAtGamma, with no cache in front of it.
//
// Consecutive searches do revisit: σ(γ) depends on neither C nor
// Δ_{0,c} (beyond Δ_{0,c} = −∞ or not), and γmax does not depend on a
// finite Δ_{0,c}, so the ~32 DelayBound solves of one EDF fixed point
// probe the same γ grid and, as the bisection converges, the same
// golden-section sequence. The kernel therefore logs σ per
// probe number (pathKernel.log, sigmaAt) and replays it when the
// logged probe at the same number has the same γ, bit for bit; the
// inner solve still runs at every probe. The replays are counted
// (core_sigma_reuses_total).
//
// Every kernel replays the scalar arithmetic expression for expression,
// so results stay bit-identical to the pre-table implementation; see
// batch_test.go, which pins the equivalence against verbatim copies of
// the old code.

// sigmaLogSize is the number of probes one DelayBound γ search makes
// before its final full pricings: the grid, the two golden-section
// seeds and one probe per golden-section step.
const sigmaLogSize = gammaGridN + 2 + delayBoundGoldenIters

// sigmaProbe is one logged probe: σ(γ) at the log's ε and scheduler
// class, written under log generation gen.
type sigmaProbe struct {
	gamma, sigma float64
	gen          uint64
}

// pathKernel caches the priced path-bound structure of one
// configuration. Delta0c and C are deliberately not part of the key:
// the EDF fixed point re-solves the same traffic at ~30 different
// Delta0c values and reuses the table across all of them.
//
// Beside the table it keeps the σ log: log[n] holds the (γ, σ) of the
// last probe numbered n, valid while its gen equals the kernel's. The
// generation names one key — the table's traffic, the violation
// probability logEps and the scheduler class logSP (Δ_{0,c} = −∞ or
// not, the one way Δ enters σ) — and moves on whenever the key does,
// which retires every slot at once. Slots are stamped one by one, so a
// search that skips probes (the EDF fixed point's grid floor, edf.go)
// leaves the other slots valid.
type pathKernel struct {
	valid          bool
	h              int
	through, cross envelope.EBB
	pricer         envelope.PathPricer

	logEps float64
	logSP  bool
	gen    uint64
	log    [sigmaLogSize]sigmaProbe
}

// ensurePricer (re)builds the path pricing table when the configuration
// changed since the last call; the common case — every probe of a γ
// sweep, every bisection step of an EDF solve — is a key compare.
// Rebuilds are counted (core_path_pricer_builds_total), so a traced run
// shows how many solves share one table. A rebuild retires the σ log.
func (s *Scratch) ensurePricer(cfg PathConfig) *envelope.PathPricer {
	k := &s.kern
	if !k.valid || k.h != cfg.H || k.through != cfg.Through || k.cross != cfg.Cross {
		s.stats.pricerBuilds++
		k.h, k.through, k.cross = cfg.H, cfg.Through, cfg.Cross
		k.pricer = envelope.NewPathPricer(
			envelope.ExpBound{M: cfg.Through.M, Alpha: cfg.Through.Alpha},
			envelope.ExpBound{M: cfg.Cross.M, Alpha: cfg.Cross.Alpha},
			cfg.H,
		)
		k.valid = true
		k.gen++
	}
	return &k.pricer
}

// dOnlyAtGamma is the sweep probe numbered n (gammaSearch numbers its
// probes): delayBoundAtGamma reduced to the delay value. It prices σ
// through sigmaAt and runs the inner solve without materializing θ —
// the γ sweeps only compare D values, and only the winning γ is priced
// in full afterwards. Infeasible γ maps to +Inf.
func (s *Scratch) dOnlyAtGamma(cfg PathConfig, eps float64, n int, gamma float64) float64 {
	s.stats.gammaProbes++
	s.stats.gammaBatchProbes++
	if gamma <= 0 || gamma >= cfg.GammaMax() {
		return math.Inf(1)
	}
	sigma := s.sigmaAt(cfg, eps, n, gamma)
	d, _ := s.innerSolve(cfg.H, cfg.C, gamma, cfg.Cross.Rho, cfg.Delta0c, sigma)
	return d
}

// sigmaAt returns pathBound(cfg, γ).SigmaFor(eps) for probe number n:
// replayed from the σ log when the logged probe n of the current
// generation had the same γ, bit for bit (a γ past dOnlyAtGamma's range
// check is positive or NaN, so == holds only for equal bits), and
// priced and logged otherwise. A slot stamped under an older key is
// never read.
func (s *Scratch) sigmaAt(cfg PathConfig, eps float64, n int, gamma float64) float64 {
	s.ensurePricer(cfg)
	k := &s.kern
	if sp := math.IsInf(cfg.Delta0c, -1); k.logEps != eps || k.logSP != sp {
		k.logEps, k.logSP = eps, sp
		k.gen++
	}
	e := &k.log[n]
	if e.gen == k.gen && e.gamma == gamma {
		s.stats.sigmaReuses++
		return e.sigma
	}
	sigma := s.pathBound(cfg, gamma).SigmaFor(eps)
	*e = sigmaProbe{gamma, sigma, k.gen}
	return sigma
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
