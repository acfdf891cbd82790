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
// discipline: mutable access to the precedence-minimal queued chunk.
// Both precedence executors — the per-flow lanes of *Precedence and the
// FIFO ring (*FIFO) — provide it.
type HeadQueue interface {
	Scheduler
	// headBits returns the head chunk's flow and a pointer to its
	// remaining bits, valid until the next Enqueue or popHead; the
	// pointer is nil when the queue is empty.
	headBits() (core.FlowID, *float64)
	popHead() // drop the head chunk (after its bits reached zero)
	addBacklog(d float64)
}

// chunk is a fluid batch awaiting service.
type chunk struct {
	k1, k2 float64 // precedence keys, lexicographic, smaller first
	flow   core.FlowID
	bits   float64
	seq    int // admission sequence, final tie-breaker (stability)
}

// chunkLess is the strict total order (k1, k2, flow, seq) every
// precedence queue serves in: seq values are unique per scheduler, so any
// two distinct chunks compare strictly — which is exactly why sorted
// queues (the FIFO ring, Precedence's lanes) and a binary heap dequeue
// in the same order.
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

// Precedence is the executor for disciplines that fix a chunk's
// precedence at arrival: chunks are served in increasing key order, with
// keys assigned at arrival from a static per-flow table and the chunk's
// slot. Static priority, BMUX and EDF are instances (their precedence
// between any two arrivals is fixed at arrival time — precisely the
// Δ-scheduler property of Definition 1).
//
// Chunks queue in one lane per flow, each lane sorted by (k1, k2) with
// equal keys in admission order, and service always takes the smallest
// lane head under (k1, k2, flow). Because chunkLess is a strict total
// order and every lane is sorted under it, that head is exactly the
// chunk a binary min-heap over all queued chunks would pop next (the
// heap is kept as a test oracle): the chunk's flow is implicit in its
// lane index and its admission sequence in the lane order. SP, BMUX and
// EDF are locally FIFO, so a flow's in-order admissions arrive in key
// order and its lane behaves as a plain ring; an admission stamped with
// an earlier slot than the flow's last one is sorted in by the lane's
// insertion. Finding the head scans every lane, which suits the few
// flows a node of the paper's topologies carries (two in a tandem).
//
// Flow ids index the lanes and key tables directly, as they index
// ServeInto's out, so they must be non-negative. Keys must not be NaN:
// a NaN key admits no strict order, so neither the lanes nor a heap
// would have a defined serve order. scenario.SchedulerFor already
// rejects the NaN Δ a NaN EDF deadline would produce.
type Precedence struct {
	name string
	// Keys are k1 = off[f] and k2 = slot, with slot added to k1 when
	// addSlot is set; off reads 0 past its end.
	off     []float64
	addSlot bool

	lanes   []lane // indexed by flow id, up to the largest id admitted
	n       int    // queued chunks across all lanes
	backlog float64
}

var _ HeadQueue = (*Precedence)(nil)

// lane is one flow's queue: a ring of entries sorted by (k1, k2), equal
// keys in admission order. The ring's length is zero or a power of two.
type lane struct {
	ring []laneEntry
	head int // ring index of the first entry
	n    int // queued entries
}

// laneEntry is a queued chunk without the fields its lane makes
// implicit: the flow (the lane's index) and the admission sequence (the
// position in the lane).
type laneEntry struct {
	k1, k2 float64
	bits   float64
}

// laneMinCap is a lane's ring length on its first admission.
const laneMinCap = 16

// push inserts an entry by shifting the entries it sorts strictly before
// one step toward the tail — the FIFO ring's tail bubble. Keys that grow
// with the slot (SP, BMUX and EDF on in-order admissions) never shift.
func (l *lane) push(k1, k2, bits float64) {
	if l.n == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	j := l.head + l.n
	for i := l.n; i > 0; i-- {
		prev := &l.ring[(j-1)&mask]
		if !(k1 < prev.k1 || k1 == prev.k1 && k2 < prev.k2) {
			break
		}
		l.ring[j&mask] = *prev
		j--
	}
	l.ring[j&mask] = laneEntry{k1: k1, k2: k2, bits: bits}
	l.n++
}

// pop drops the head entry.
func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// grow doubles the ring, unwrapping the entries to start at index 0.
func (l *lane) grow() {
	ring := make([]laneEntry, max(2*len(l.ring), laneMinCap))
	n := copy(ring, l.ring[l.head:])
	copy(ring[n:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// NewSP serves by static priority (higher level first), FIFO within a
// level. Flows absent from the map default to level 0.
func NewSP(level map[core.FlowID]int) *Precedence {
	p := &Precedence{name: "SP"}
	for f, v := range level {
		p.setKey(f, -float64(v))
	}
	return p
}

// NewBMUX gives the designated flow strictly lowest priority; all other
// flows are FIFO among themselves.
func NewBMUX(low core.FlowID) *Precedence {
	p := &Precedence{name: "BMUX"}
	p.setKey(low, 1)
	return p
}

// NewEDF serves by earliest deadline (arrival + per-flow constraint),
// breaking deadline ties by arrival slot. Flows absent from the map get
// deadline 0.
func NewEDF(deadline map[core.FlowID]float64) *Precedence {
	p := &Precedence{name: "EDF", addSlot: true}
	for f, d := range deadline {
		p.setKey(f, d)
	}
	return p
}

// setKey records flow f's static key term, zero-extending the table.
// Negative ids are skipped: they index no lane, so they are never
// admitted.
func (p *Precedence) setKey(f core.FlowID, k float64) {
	if f < 0 {
		return
	}
	if int(f) >= len(p.off) {
		p.off = append(p.off, make([]float64, int(f)+1-len(p.off))...)
	}
	p.off[f] = k
}

// Name implements Scheduler.
func (p *Precedence) Name() string { return p.name }

// Enqueue implements Scheduler.
func (p *Precedence) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	var k1 float64
	k2 := float64(slot)
	if int(f) < len(p.off) {
		k1 = p.off[f]
	}
	if p.addSlot {
		k1 = k2 + k1
	}
	if int(f) >= len(p.lanes) {
		p.lanes = append(p.lanes, make([]lane, int(f)+1-len(p.lanes))...)
	}
	p.lanes[f].push(k1, k2, bits)
	p.n++
	p.backlog += bits
}

// minLane returns the flow whose lane head is smallest under
// (k1, k2, flow): lanes are scanned in flow-id order and a later lane
// wins only on strictly smaller keys. The queue must not be empty.
func (p *Precedence) minLane() int {
	best := -1
	var bk1, bk2 float64
	for f := range p.lanes {
		l := &p.lanes[f]
		if l.n == 0 {
			continue
		}
		e := &l.ring[l.head]
		if best < 0 || e.k1 < bk1 || e.k1 == bk1 && e.k2 < bk2 {
			best, bk1, bk2 = f, e.k1, e.k2
		}
	}
	return best
}

// ServeInto implements Scheduler: drain the minimal lane head until the
// budget or the queue runs out. The minimum is taken by branch; on the
// positive operands that reach it, that equals math.Min.
func (p *Precedence) ServeInto(budget float64, out []float64) {
	for budget > 1e-12 && p.n > 0 {
		f := p.minLane()
		l := &p.lanes[f]
		e := &l.ring[l.head]
		take := e.bits
		if budget < take {
			take = budget
		}
		out[f] += take
		e.bits -= take
		p.backlog -= take
		budget -= take
		if e.bits <= 1e-12 {
			p.backlog += e.bits // absorb the fp residue
			l.pop()
			p.n--
		}
	}
	if p.backlog < 0 {
		p.backlog = 0
	}
}

// Backlog implements Scheduler.
func (p *Precedence) Backlog() float64 { return p.backlog }

// QueueLen implements Scheduler.
func (p *Precedence) QueueLen() int { return p.n }

// headBits implements HeadQueue.
func (p *Precedence) headBits() (core.FlowID, *float64) {
	if p.n == 0 {
		return 0, nil
	}
	f := p.minLane()
	l := &p.lanes[f]
	return core.FlowID(f), &l.ring[l.head].bits
}

// popHead implements HeadQueue.
func (p *Precedence) popHead() {
	p.lanes[p.minLane()].pop()
	p.n--
}

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
