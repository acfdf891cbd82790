package core

import (
	"math"
	"sync"

	"deltasched/internal/envelope"
)

// This file holds the table-driven γ kernel (ISSUE 9): the γ-independent
// structure of the path bound — the merged decay w = Σ 1/α_j and the
// per-term log weights — is priced once per (H, through, cross) into an
// envelope.PathPricer held in the Scratch, and every γ probe then pays
// only the γ-dependent exponentials. A D-only probe variant skips the
// θ-vector fill the sweeps never read, and a fixed-size ring replaces
// the per-sweep γ→D memo map (the only repeats are the golden-section
// bracket's last few collapsed probes, which sit within ring reach).
//
// Every kernel replays the scalar arithmetic expression for expression,
// so results stay bit-identical to the pre-table implementation; see
// batch_test.go, which pins the equivalence against verbatim copies of
// the old code.

// pathKernel caches the priced path-bound structure of one
// configuration. Delta0c and C are deliberately not part of the key:
// the EDF fixed point re-solves the same traffic at ~30 different
// Delta0c values and reuses the table across all of them.
type pathKernel struct {
	valid          bool
	h              int
	through, cross envelope.EBB
	pricer         envelope.PathPricer
}

// ensurePricer (re)builds the path pricing table when the configuration
// changed since the last call; the common case — every probe of a γ
// sweep, every bisection step of an EDF solve — is a key compare.
func (s *Scratch) ensurePricer(cfg PathConfig) *envelope.PathPricer {
	k := &s.kern
	if !k.valid || k.h != cfg.H || k.through != cfg.Through || k.cross != cfg.Cross {
		k.h, k.through, k.cross = cfg.H, cfg.Through, cfg.Cross
		k.pricer = envelope.NewPathPricer(
			envelope.ExpBound{M: cfg.Through.M, Alpha: cfg.Through.Alpha},
			envelope.ExpBound{M: cfg.Cross.M, Alpha: cfg.Cross.Alpha},
			cfg.H,
		)
		k.valid = true
	}
	return &k.pricer
}

// dOnlyAtGamma is the sweep probe: delayBoundAtGamma reduced to the
// delay value. It prices the bound through the kernel table and runs
// the inner solve without materializing θ — the γ sweeps only compare
// D values, and only the winning γ is priced in full afterwards.
// Infeasible γ maps to +Inf exactly as the old sweep's error handling
// did.
func (s *Scratch) dOnlyAtGamma(cfg PathConfig, eps, gamma float64) float64 {
	s.stats.gammaProbes++
	s.stats.gammaBatchProbes++
	if gamma <= 0 || gamma >= cfg.GammaMax() {
		return math.Inf(1)
	}
	p := s.ensurePricer(cfg)
	var bound envelope.ExpBound
	if math.IsInf(cfg.Delta0c, -1) {
		s.stats.envSegs++
		bound = p.ThroughBoundAt(gamma)
	} else {
		s.stats.envSegs += int64(p.Segments())
		bound = p.BoundAt(gamma)
	}
	sigma := bound.SigmaFor(eps)
	d, _ := s.innerSolve(cfg.H, cfg.C, gamma, cfg.Cross.Rho, cfg.Delta0c, sigma)
	return d
}

// gammaRingSize is the capacity of the per-sweep γ→D ring cache. The
// only systematic re-probes are the golden-section bracket's final
// iterations, whose bracket has collapsed below float spacing — those
// repeats are always among the most recent handful of probes, so a
// small ring catches what the old unbounded map did without its
// per-probe hashing or its clear() cost.
const gammaRingSize = 8

// evalGammaCached returns dOnlyAtGamma through the ring cache,
// counting hits as the map memo did.
func (s *Scratch) evalGammaCached(cfg PathConfig, eps, gamma float64) float64 {
	for i := 0; i < s.gringLen; i++ {
		if s.gringG[i] == gamma {
			s.stats.gammaMemoHits++
			return s.gringD[i]
		}
	}
	d := s.dOnlyAtGamma(cfg, eps, gamma)
	s.gringG[s.gringPos] = gamma
	s.gringD[s.gringPos] = d
	s.gringPos = (s.gringPos + 1) % gammaRingSize
	if s.gringLen < gammaRingSize {
		s.gringLen++
	}
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
	defer s.flushOptStats()
	s.stats.gammaBatchProbes += int64(len(gammas))
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
