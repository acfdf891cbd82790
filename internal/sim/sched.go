// Package sim is a discrete-time (slotted) fluid simulator for the
// paper's network model: buffered constant-rate links with work-conserving
// locally-FIFO schedulers, through traffic traversing a tandem of nodes,
// and cross traffic joining at every hop. It serves as the executable
// ground truth for the analytical bounds of internal/core: simulated
// delays must stay below the computed bounds at the corresponding
// violation probability, and the greedy scenarios of Theorem 2 must attain
// the deterministic bounds.
//
// Packetization is ignored, as in the paper: data is fluid and service
// within a slot can split chunks arbitrarily.
package sim

import (
	"fmt"
	"math"
	"sort"

	"deltasched/internal/core"
)

// Scheduler is a per-node link scheduling discipline operating on fluid
// chunks tagged with their flow and arrival slot.
type Scheduler interface {
	Name() string
	// Enqueue admits bits of flow f arriving at the given slot.
	Enqueue(f core.FlowID, slot int, bits float64)
	// ServeInto transmits up to budget bits in precedence order, adding
	// flow f's served bits to out[f]. Implementations must be
	// work-conserving: they serve min(budget, backlog). Flow ids index
	// out directly, so callers size it past every flow id the scheduler
	// has been asked to enqueue (tandem nodes have exactly two) and zero
	// the entries they read before each call.
	ServeInto(budget float64, out []float64)
	// Backlog returns the total buffered bits.
	Backlog() float64
	// QueueLen returns the number of queued chunks — plus the packet on
	// the wire for the packetized wrapper.
	QueueLen() int
}

// HeadQueue is the contract NonPreemptive needs from its inner
// discipline: mutable access to the precedence-ordered head-of-line
// chunk. Both precedence implementations — the generic heap (*Precedence)
// and the FIFO ring (*FIFO) — provide it.
type HeadQueue interface {
	Scheduler
	headChunk() *chunk // precedence-minimal queued chunk; nil when empty
	popHead()          // drop the head chunk (after its bits reached zero)
	addBacklog(d float64)
}

// chunk is a fluid batch awaiting service.
type chunk struct {
	k1, k2 float64 // precedence keys, lexicographic, smaller first
	flow   core.FlowID
	bits   float64
	seq    int // admission sequence, final tie-breaker (stability)
}

// chunkHeap is a binary min-heap of chunks ordered by (k1, k2, flow,
// seq). It reimplements container/heap's sift loops on the concrete type
// because the interface{} boxing of heap.Push/heap.Pop allocated on
// every enqueue and dequeue — several times per simulated slot, the
// dominant allocation in the slot loop (see DESIGN.md's Performance
// section). The algorithms are verbatim container/heap, so the heap
// layout, and with it the serve order, is bit-identical to the boxed
// version.
type chunkHeap []chunk

// chunkLess is the strict total order (k1, k2, flow, seq) shared by the
// heap and the FIFO ring: seq values are unique per scheduler, so any two
// distinct chunks compare strictly — which is exactly why a sorted ring
// and a binary heap dequeue in the same order.
func chunkLess(a, b *chunk) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	if a.flow != b.flow {
		return a.flow < b.flow
	}
	return a.seq < b.seq
}

func (h chunkHeap) Len() int { return len(h) }
func (h chunkHeap) less(i, j int) bool {
	return chunkLess(&h[i], &h[j])
}

// push inserts a chunk and sifts it up (container/heap.Push without the
// boxing).
func (h *chunkHeap) push(c chunk) {
	*h = append(*h, c)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// popMin removes the minimum chunk q[0] (container/heap.Pop without the
// boxing; callers read q[0] before popping, so nothing is returned).
func (h *chunkHeap) popMin() {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
}

// Precedence is a generic executor for disciplines that fix a chunk's
// precedence at arrival: chunks are served in increasing key order, with
// keys assigned at arrival by a discipline-specific function of the
// chunk's flow, slot and size. Static priority, BMUX and EDF are
// instances (their precedence between any two arrivals is fixed at
// arrival time — precisely the Δ-scheduler property of Definition 1), and
// so is SCED, whose key function carries per-flow service-curve state.
type Precedence struct {
	name    string
	keyOf   func(f core.FlowID, slot int, bits float64) (k1, k2 float64)
	q       chunkHeap
	backlog float64
	seq     int
}

var _ HeadQueue = (*Precedence)(nil)

// NewSP serves by static priority (higher level first), FIFO within a
// level. Flows absent from the map default to level 0.
func NewSP(level map[core.FlowID]int) *Precedence {
	cp := make(map[core.FlowID]int, len(level))
	for k, v := range level {
		cp[k] = v
	}
	return &Precedence{
		name: "SP",
		keyOf: func(f core.FlowID, slot int, _ float64) (float64, float64) {
			return -float64(cp[f]), float64(slot)
		},
	}
}

// NewBMUX gives the designated flow strictly lowest priority; all other
// flows are FIFO among themselves.
func NewBMUX(low core.FlowID) *Precedence {
	return &Precedence{
		name: "BMUX",
		keyOf: func(f core.FlowID, slot int, _ float64) (float64, float64) {
			if f == low {
				return 1, float64(slot)
			}
			return 0, float64(slot)
		},
	}
}

// NewEDF serves by earliest deadline (arrival + per-flow constraint),
// breaking deadline ties by arrival slot. Flows absent from the map get
// deadline 0.
func NewEDF(deadline map[core.FlowID]float64) *Precedence {
	cp := make(map[core.FlowID]float64, len(deadline))
	for k, v := range deadline {
		cp[k] = v
	}
	return &Precedence{
		name: "EDF",
		keyOf: func(f core.FlowID, slot int, _ float64) (float64, float64) {
			return float64(slot) + cp[f], float64(slot)
		},
	}
}

// Name implements Scheduler.
func (p *Precedence) Name() string { return p.name }

// Enqueue implements Scheduler.
func (p *Precedence) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	k1, k2 := p.keyOf(f, slot, bits)
	p.seq++
	p.q.push(chunk{k1: k1, k2: k2, flow: f, bits: bits, seq: p.seq})
	p.backlog += bits
}

// ServeInto implements Scheduler: drain the heap minimum until the budget
// or the queue runs out.
func (p *Precedence) ServeInto(budget float64, out []float64) {
	for budget > 1e-12 && p.q.Len() > 0 {
		c := &p.q[0]
		take := math.Min(budget, c.bits)
		out[c.flow] += take
		c.bits -= take
		p.backlog -= take
		budget -= take
		if c.bits <= 1e-12 {
			p.backlog += c.bits // absorb the fp residue
			p.q.popMin()
		}
	}
	if p.backlog < 0 {
		p.backlog = 0
	}
}

// Backlog implements Scheduler.
func (p *Precedence) Backlog() float64 { return p.backlog }

// QueueLen implements Scheduler.
func (p *Precedence) QueueLen() int { return p.q.Len() }

// headChunk implements HeadQueue.
func (p *Precedence) headChunk() *chunk {
	if p.q.Len() == 0 {
		return nil
	}
	return &p.q[0]
}

// popHead implements HeadQueue.
func (p *Precedence) popHead() { p.q.popMin() }

// addBacklog implements HeadQueue.
func (p *Precedence) addBacklog(d float64) { p.backlog += d }

// GPS is generalized processor sharing: backlogged flows are served
// simultaneously in proportion to their weights (fluid water-filling each
// slot), FIFO within a flow. GPS is *not* a Δ-scheduler (the precedence
// between two arrivals depends on the random backlog process — see the
// paper's Section III), which is exactly why it is implemented here
// directly rather than via Precedence.
type GPS struct {
	weight  map[core.FlowID]float64
	queues  map[core.FlowID][]chunk
	order   []core.FlowID
	backlog float64
}

var _ Scheduler = (*GPS)(nil)

// NewGPS validates and copies the weights.
func NewGPS(weight map[core.FlowID]float64) (*GPS, error) {
	if len(weight) == 0 {
		return nil, fmt.Errorf("sim: GPS needs at least one weighted flow")
	}
	cp := make(map[core.FlowID]float64, len(weight))
	var order []core.FlowID
	for f, w := range weight {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("sim: GPS weight for flow %d must be positive and finite, got %g", f, w)
		}
		cp[f] = w
		order = append(order, f)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return &GPS{weight: cp, queues: make(map[core.FlowID][]chunk), order: order}, nil
}

// Name implements Scheduler.
func (g *GPS) Name() string { return "GPS" }

// Enqueue implements Scheduler.
func (g *GPS) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	if _, ok := g.weight[f]; !ok {
		// Unweighted flows default to weight of 1.
		g.weight[f] = 1
		g.order = append(g.order, f)
		sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	}
	g.queues[f] = append(g.queues[f], chunk{bits: bits})
	g.backlog += bits
}

func (g *GPS) flowBacklog(f core.FlowID) float64 {
	total := 0.0
	for _, c := range g.queues[f] {
		total += c.bits
	}
	return total
}

func (g *GPS) drain(f core.FlowID, amount float64) {
	q := g.queues[f]
	g.backlog -= amount
	for i := range q {
		take := math.Min(amount, q[i].bits)
		q[i].bits -= take
		amount -= take
		if amount <= 1e-15 {
			break
		}
	}
	// Compact drained chunks.
	keep := q[:0]
	for _, c := range q {
		if c.bits > 1e-12 {
			keep = append(keep, c)
		}
	}
	g.queues[f] = keep
}

// ServeInto implements Scheduler: iterative water-filling — flows that
// empty their queue mid-slot return their unused share to the others,
// preserving work conservation.
func (g *GPS) ServeInto(budget float64, out []float64) {
	for budget > 1e-12 {
		totalW := 0.0
		for _, f := range g.order {
			if g.flowBacklog(f) > 0 {
				totalW += g.weight[f]
			}
		}
		if totalW == 0 {
			break
		}
		spent := 0.0
		for _, f := range g.order {
			bl := g.flowBacklog(f)
			if bl <= 0 {
				continue
			}
			share := budget * g.weight[f] / totalW
			take := math.Min(share, bl)
			g.drain(f, take)
			out[f] += take
			spent += take
		}
		if spent <= 1e-12 {
			break
		}
		budget -= spent
	}
	if g.backlog < 0 {
		g.backlog = 0
	}
}

// Backlog implements Scheduler.
func (g *GPS) Backlog() float64 { return g.backlog }

// QueueLen implements Scheduler: queued chunks across all flows.
func (g *GPS) QueueLen() int {
	n := 0
	for _, q := range g.queues {
		n += len(q)
	}
	return n
}
