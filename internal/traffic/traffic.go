// Package traffic provides discrete-time traffic sources for the network
// simulator: the paper's Markov-modulated on-off flows, constant bit rate
// sources, aggregates, and greedy (envelope-tracing) adversaries used by
// the Theorem 2 tightness experiments.
//
// A source emits a non-negative amount of data at each slot; cumulative
// emissions over [0, t) form the arrival process A(t) of the paper.
package traffic

import (
	"errors"
	"fmt"

	"deltasched/internal/envelope"
	"deltasched/internal/minplus"
	"deltasched/internal/randx"
)

// mask63 truncates a Uint64 output to the Int63 draw that Float64
// scales.
const mask63 = 1<<63 - 1

// Source generates per-slot arrivals.
type Source interface {
	// Next returns the amount of data arriving in the current slot and
	// advances the source to the next slot.
	Next() float64
}

// MMOO is a two-state Markov-modulated on-off source (paper Section V).
// The initial state is drawn from the stationary distribution so that
// finite simulations match the analysis without a warm-up phase.
type MMOO struct {
	model envelope.MMOO
	rng   randx.Uniform
	fast  *randx.Rand // non-nil when rng is the concrete devirtualized RNG
	on    bool
}

// NewMMOO validates the chain and seeds the state from its stationary
// distribution using the provided RNG. When rng is a *randx.Rand the
// source runs devirtualized (no interface dispatch per draw) on a
// bit-identical stream.
func NewMMOO(m envelope.MMOO, rng randx.Uniform) (*MMOO, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("traffic: NewMMOO needs a uniform RNG")
	}
	fast, _ := rng.(*randx.Rand)
	return &MMOO{
		model: m,
		rng:   rng,
		fast:  fast,
		on:    rng.Float64() < m.OnProbability(),
	}, nil
}

// Next implements Source.
func (s *MMOO) Next() float64 {
	if s.fast != nil {
		return s.nextFast(s.fast)
	}
	out := 0.0
	if s.on {
		out = s.model.Peak
	}
	// Transition for the next slot.
	if s.on {
		s.on = s.rng.Float64() < s.model.P22
	} else {
		s.on = s.rng.Float64() >= s.model.P11
	}
	return out
}

// nextFast is Next on the concrete RNG: one branch merge apart (emit and
// transition share the state test), the float operations and the single
// Float64 draw per slot are identical, so the sample path is too.
func (s *MMOO) nextFast(r *randx.Rand) float64 {
	if s.on {
		s.on = r.Float64() < s.model.P22
		return s.model.Peak
	}
	s.on = r.Float64() >= s.model.P11
	return 0
}

// CBR is a constant bit rate source.
type CBR struct {
	Rate float64
}

// Next implements Source.
func (s CBR) Next() float64 { return s.Rate }

// Aggregate sums a set of sources (statistical multiplexing of flows into
// the through- or cross-traffic aggregates of the paper's Fig. 1).
type Aggregate struct {
	sources []Source
	// mm is the devirtualized member bank, non-nil when every member is
	// an *MMOO on the concrete fast RNG: the common simulator wiring,
	// where the per-slot sum can skip both the Source dispatch and the
	// Uniform dispatch entirely.
	mm []*MMOO
	// uniform marks a bank whose members all share one RNG and one model
	// (NewMMOOAggregate's wiring). The per-slot step then works on
	// integers only (see nextUniform): one Fill of the shared RNG, the
	// packed `on` flags stepped against the model's integer thresholds,
	// and the emission read from a table. The member structs are not
	// advanced on this path, so a source handed to NewAggregate must
	// afterwards be driven only through the aggregate.
	uniform bool
	bankR   *randx.Rand
	on      []uint8   // per-flow ON flags, 0 or 1
	draws   []uint64  // one slot's draws, one per flow
	sums    []float64 // sums[k]: Peak added k times to 0.0
	// Integer thresholds T(p) of randx.Float64Threshold: for an Int63
	// draw x, Float64() < p exactly when x < T(p). thr[o] is the one a
	// flow in state o compares against, T(P11) OFF and T(P22) ON; t1 =
	// T(1) is the first draw Float64 rounds to 1.0 and redraws.
	thr [2]uint64
	t1  uint64
}

// NewAggregate bundles the given sources.
func NewAggregate(sources ...Source) *Aggregate {
	a := &Aggregate{sources: sources}
	if len(sources) > 0 {
		mm := make([]*MMOO, len(sources))
		for i, s := range sources {
			m, ok := s.(*MMOO)
			if !ok || m.fast == nil {
				mm = nil
				break
			}
			mm[i] = m
		}
		a.mm = mm
		if mm != nil {
			a.uniform = true
			a.bankR = mm[0].fast
			model := mm[0].model
			for _, m := range mm {
				if m.fast != a.bankR || m.model != model {
					a.uniform = false
					break
				}
			}
			if a.uniform {
				a.on = make([]uint8, len(mm))
				for i, m := range mm {
					if m.on {
						a.on[i] = 1
					}
				}
				a.draws = make([]uint64, len(mm))
				a.sums = make([]float64, len(mm)+1)
				for k := 1; k < len(a.sums); k++ {
					a.sums[k] = a.sums[k-1] + model.Peak
				}
				a.thr = [2]uint64{randx.Float64Threshold(model.P11), randx.Float64Threshold(model.P22)}
				a.t1 = randx.Float64Threshold(1)
			}
		}
	}
	return a
}

// NewMMOOAggregate creates n iid MMOO flows sharing one RNG.
func NewMMOOAggregate(m envelope.MMOO, n int, rng randx.Uniform) (*Aggregate, error) {
	if n < 0 {
		return nil, fmt.Errorf("traffic: aggregate size must be >= 0, got %d", n)
	}
	srcs := make([]Source, 0, n)
	for i := 0; i < n; i++ {
		s, err := NewMMOO(m, rng)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	return NewAggregate(srcs...), nil
}

// Next implements Source.
func (a *Aggregate) Next() float64 {
	if a.mm != nil {
		return a.nextBank()
	}
	total := 0.0
	for _, s := range a.sources {
		total += s.Next()
	}
	return total
}

// nextBank sums the all-MMOO member bank with concrete calls only. The
// members' draws happen in the same order as the generic loop, and
// skipping the += for OFF members does not change the float sum (adding
// +0.0 is an identity on every non-negative accumulator).
func (a *Aggregate) nextBank() float64 {
	if a.uniform {
		return a.nextUniform()
	}
	total := 0.0
	for _, m := range a.mm {
		r := m.fast
		if m.on {
			total += m.model.Peak
			m.on = r.Float64() < m.model.P22
		} else {
			m.on = r.Float64() >= m.model.P11
		}
	}
	return total
}

// nextUniform is nextBank on a uniform bank, in the integer domain. It
// takes the slot's len(on) draws in one Fill and compares each Int63
// draw x with the integer thresholds, which decides exactly what the
// per-flow loop's Float64 compares decide (randx.Float64Threshold). The
// emission is sums[k] for the k flows ON at the start of the slot: the
// per-flow loop adds Peak to 0.0 once per ON flow, and with equal addends
// its partial sums depend only on how many there were. A draw at or above
// T(1) is one Float64 would redraw; redrawTail finishes the slot from it.
// DESIGN.md §18 gives the argument in full; TestFastRNGStreamParity and
// the forced-redraw test pin it against the math/rand stream.
func (a *Aggregate) nextUniform() float64 {
	draws := a.draws
	a.bankR.Fill(draws)
	on := a.on[:len(draws)]
	thr, t1 := &a.thr, a.t1
	k := 0
	for i, x := range draws {
		x &= mask63
		if x >= t1 {
			return a.redrawTail(i, k)
		}
		o := on[i]
		k += int(o)
		on[i] = mmooStep(o, x, thr)
	}
	return a.sums[k]
}

// redrawTail finishes a slot of nextUniform whose draw for flow i rounded
// to 1.0; k flows before i were ON. Like Float64's redraw loop it skips
// every such draw, so flow i and each later flow take the next accepted
// draw: first the slot's unused buffered draws, then fresh ones.
func (a *Aggregate) redrawTail(i, k int) float64 {
	on := a.on
	pending := a.draws[i+1:]
	for ; i < len(on); i++ {
		var x uint64
		for {
			if len(pending) > 0 {
				x, pending = pending[0]&mask63, pending[1:]
			} else {
				x = uint64(a.bankR.Int63())
			}
			if x < a.t1 {
				break
			}
		}
		o := on[i]
		k += int(o)
		on[i] = mmooStep(o, x, &a.thr)
	}
	return a.sums[k]
}

// mmooStep is one flow's transition on an accepted draw x < T(1): an ON
// flow (o = 1) stays ON when x < T(P22), i.e. Float64() < P22, and an OFF
// flow turns ON when x >= T(P11), i.e. Float64() >= P11. It is branch
// free: both x and the threshold are at most 2⁶³, so bit 63 of x − thr is
// the borrow of the compare, 1 exactly when x < thr, and the OFF state's
// sense is flipped by the xor.
func mmooStep(o uint8, x uint64, thr *[2]uint64) uint8 {
	lt := uint8((x - thr[o&1]) >> 63)
	return lt ^ o ^ 1
}

// Size returns the number of bundled flows.
func (a *Aggregate) Size() int { return len(a.sources) }

// CountAggregate simulates n iid two-state MMOO flows as a single Markov
// chain on the number of currently-ON flows. Because the flows are iid,
// the ON-count k is a sufficient statistic for the aggregate: each slot
// emits k·Peak and the count evolves as
//
//	k' = Bin(k, P22) + Bin(n−k, 1−P11),
//
// i.e. the ON flows that stay ON plus the OFF flows that switch ON, two
// independent binomial draws. The per-slot arrival process is equal in
// distribution to NewMMOOAggregate's — exactly, not asymptotically — but
// costs O(1) RNG draws per slot instead of O(n), which dominates the
// simulator's slot loop at the paper's flow counts (210 flows in the
// Fig. 1 benchmark topology).
//
// The RNG *stream* necessarily differs from the per-source aggregate
// (two binomial draws consume different uniforms than n Bernoulli draws),
// so seeded runs are not sample-path-identical across the two modes; use
// NewMMOOAggregate when bit-exact legacy streams matter and this type
// when throughput does. Statistical parity — mean rate, per-slot
// variance, lag-1 autocovariance, stationary ON-count distribution — is
// pinned by the tests.
type CountAggregate struct {
	model envelope.MMOO
	rng   randx.Uniform
	fast  *randx.Rand // non-nil when rng is the concrete devirtualized RNG
	n     int
	k     int // flows currently ON
	// Fixed-p samplers with the (1−p)^n tables precomputed up to n: the
	// slot loop draws without touching exp/log (the draws stay
	// bit-identical to randx.Binomial).
	stay *randx.BinomialSampler // Bin(k, P22): ON flows that remain ON
	join *randx.BinomialSampler // Bin(n−k, 1−P11): OFF flows switching ON
}

// NewMMOOCountAggregate validates the chain and draws the initial ON
// count from the stationary distribution Bin(n, OnProbability), matching
// NewMMOOAggregate's warm start.
func NewMMOOCountAggregate(m envelope.MMOO, n int, rng randx.Uniform) (*CountAggregate, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("traffic: aggregate size must be >= 0, got %d", n)
	}
	if rng == nil {
		return nil, errors.New("traffic: NewMMOOCountAggregate needs a uniform RNG")
	}
	fast, _ := rng.(*randx.Rand)
	return &CountAggregate{
		model: m,
		rng:   rng,
		fast:  fast,
		n:     n,
		k:     randx.Binomial(rng, n, m.OnProbability()),
		stay:  randx.NewBinomialSampler(n, m.P22),
		join:  randx.NewBinomialSampler(n, 1-m.P11),
	}, nil
}

// Next implements Source.
func (a *CountAggregate) Next() float64 {
	out := float64(a.k) * a.model.Peak
	var stay, join int
	if a.fast != nil {
		stay = a.stay.SampleFast(a.fast, a.k)
		join = a.join.SampleFast(a.fast, a.n-a.k)
	} else {
		stay = a.stay.Sample(a.rng, a.k)
		join = a.join.Sample(a.rng, a.n-a.k)
	}
	a.k = stay + join
	return out
}

// Size returns the number of modeled flows.
func (a *CountAggregate) Size() int { return a.n }

// OnCount returns the number of flows currently ON — the chain state,
// exposed for the parity tests.
func (a *CountAggregate) OnCount() int { return a.k }

// Greedy traces a deterministic envelope exactly: cumulative emissions
// after t slots equal E(t). It realizes the adversarial arrival pattern of
// the Theorem 2 necessity proof ("each flow k has arrivals such that
// A_k(t) = E_k(t)").
type Greedy struct {
	env  minplus.Curve
	slot int
	sent float64
}

// NewGreedy validates the envelope (non-decreasing, finite) and returns a
// greedy tracer.
func NewGreedy(env minplus.Curve) (*Greedy, error) {
	if !env.IsFinite() {
		return nil, errors.New("traffic: greedy source needs a finite envelope")
	}
	if !env.NonDecreasing() {
		return nil, errors.New("traffic: greedy source needs a non-decreasing envelope")
	}
	return &Greedy{env: env}, nil
}

// Next implements Source: the slot-0 emission is E(1) (the initial burst
// plus one slot's worth), and thereafter E(t+1) − E(t).
func (g *Greedy) Next() float64 {
	g.slot++
	target := g.env.Eval(float64(g.slot))
	out := target - g.sent
	if out < 0 {
		out = 0
	}
	g.sent += out
	return out
}

// Delayed wraps a source, holding it silent for the first `start` slots —
// used to inject a tagged arrival at a chosen time t*.
type Delayed struct {
	Start int
	Src   Source

	slot int
}

// Next implements Source.
func (d *Delayed) Next() float64 {
	if d.slot < d.Start {
		d.slot++
		return 0
	}
	d.slot++
	return d.Src.Next()
}

// Pulse emits a single burst of the given size at slot Start and nothing
// otherwise.
type Pulse struct {
	Start int
	Size  float64

	slot int
}

// Next implements Source.
func (p *Pulse) Next() float64 {
	s := p.slot
	p.slot++
	if s == p.Start {
		return p.Size
	}
	return 0
}

// Trace replays a recorded per-slot arrival sequence; past the end it
// emits nothing. Useful for feeding measured traffic into the simulator
// or for crafting exact adversarial patterns in tests.
type Trace struct {
	Data []float64

	pos int
}

// Next implements Source.
func (t *Trace) Next() float64 {
	if t.pos >= len(t.Data) {
		return 0
	}
	v := t.Data[t.pos]
	t.pos++
	if v < 0 {
		return 0
	}
	return v
}

// PeriodicOnOff is a deterministic on-off source: Rate per slot for On
// slots, then silent for Off slots, repeating, starting at phase Phase
// into the cycle. It is the deterministic counterpart of the MMOO source
// (worst-case burstiness for a given mean when phase-aligned).
type PeriodicOnOff struct {
	Rate  float64
	On    int
	Off   int
	Phase int

	slot int
}

// Next implements Source.
func (p *PeriodicOnOff) Next() float64 {
	period := p.On + p.Off
	if period <= 0 || p.On <= 0 {
		return 0
	}
	pos := (p.slot + p.Phase) % period
	p.slot++
	if pos < p.On {
		return p.Rate
	}
	return 0
}
