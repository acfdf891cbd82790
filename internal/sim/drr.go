package sim

import (
	"fmt"
	"math"
	"sort"

	"deltasched/internal/core"
)

// DRR is deficit round robin: flows are visited cyclically and each visit
// may transmit up to its accumulated quantum. Like GPS, DRR approximates
// fair sharing and is *not* a Δ-scheduler (precedence between two
// arrivals depends on the round-robin pointer and the deficit counters,
// i.e. on the random backlog history). It is included as a second
// executable example of a widely deployed non-Δ discipline.
type DRR struct {
	quantum  map[core.FlowID]float64
	deficit  map[core.FlowID]float64
	queues   map[core.FlowID][]chunk
	active   []core.FlowID // round-robin list of backlogged flows
	next     int           // round-robin pointer into active
	midVisit bool          // a visit was interrupted by the slot boundary
	backlog  float64
}

var _ Scheduler = (*DRR)(nil)

// NewDRR validates and copies the per-flow quanta (bits added to a flow's
// deficit each round).
func NewDRR(quantum map[core.FlowID]float64) (*DRR, error) {
	if len(quantum) == 0 {
		return nil, fmt.Errorf("sim: DRR needs at least one flow quantum")
	}
	cp := make(map[core.FlowID]float64, len(quantum))
	for f, q := range quantum {
		if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, fmt.Errorf("sim: DRR quantum for flow %d must be positive, got %g", f, q)
		}
		cp[f] = q
	}
	return &DRR{
		quantum: cp,
		deficit: make(map[core.FlowID]float64),
		queues:  make(map[core.FlowID][]chunk),
	}, nil
}

// Name implements Scheduler.
func (d *DRR) Name() string { return "DRR" }

// Enqueue implements Scheduler.
func (d *DRR) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	if _, ok := d.quantum[f]; !ok {
		d.quantum[f] = 1
	}
	if len(d.queues[f]) == 0 {
		d.activate(f)
	}
	d.queues[f] = append(d.queues[f], chunk{bits: bits})
	d.backlog += bits
}

func (d *DRR) activate(f core.FlowID) {
	for _, g := range d.active {
		if g == f {
			return
		}
	}
	d.active = append(d.active, f)
	// Keep activation order deterministic across map iteration.
	sort.Slice(d.active, func(i, j int) bool { return d.active[i] < d.active[j] })
}

// ServeInto implements Scheduler: cycle through backlogged flows, topping
// up deficits by one quantum per visit and draining up to the deficit.
func (d *DRR) ServeInto(budget float64, out []float64) {
	guard := 0
	for budget > 1e-12 && len(d.active) > 0 {
		guard++
		if guard > 1<<20 {
			return // defensive: cannot happen with positive quanta
		}
		if d.next >= len(d.active) {
			d.next = 0
		}
		f := d.active[d.next]
		if !d.midVisit {
			d.deficit[f] += d.quantum[f]
		}
		d.midVisit = false
		spend := math.Min(budget, d.deficit[f])
		served := d.drain(f, spend)
		out[f] += served
		budget -= served
		d.deficit[f] -= served
		if len(d.queues[f]) == 0 {
			// Flow emptied: reset its deficit and remove from the round.
			d.deficit[f] = 0
			d.active = append(d.active[:d.next], d.active[d.next+1:]...)
			continue // next flow now occupies d.next
		}
		if budget <= 1e-12 && d.deficit[f] > 1e-12 {
			// Slot boundary interrupted the visit: resume it next slot
			// without topping the deficit up again.
			d.midVisit = true
			return
		}
		d.next++
	}
}

func (d *DRR) drain(f core.FlowID, amount float64) float64 {
	q := d.queues[f]
	total := 0.0
	for i := range q {
		take := math.Min(amount-total, q[i].bits)
		q[i].bits -= take
		total += take
		if total >= amount-1e-15 {
			break
		}
	}
	keep := q[:0]
	for _, c := range q {
		if c.bits > 1e-12 {
			keep = append(keep, c)
		}
	}
	d.queues[f] = keep
	d.backlog -= total
	if d.backlog < 0 {
		d.backlog = 0
	}
	return total
}

// Backlog implements Scheduler.
func (d *DRR) Backlog() float64 { return d.backlog }

// QueueLen implements Scheduler: queued chunks across all flows.
func (d *DRR) QueueLen() int {
	n := 0
	for _, q := range d.queues {
		n += len(q)
	}
	return n
}
