package sim

import (
	"math"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/randx"
)

// heapPrecedence is the binary-heap precedence executor Precedence ran
// on before its per-flow lanes, kept verbatim as the oracle the lanes
// and the FIFO ring are pinned against: every queued chunk sits in one
// heap ordered by chunkLess, with its flow and admission sequence stored
// explicitly.
type heapPrecedence struct {
	name    string
	keyOf   func(f core.FlowID, slot int, bits float64) (k1, k2 float64)
	q       chunkHeap
	backlog float64
	seq     int
}

var _ HeadQueue = (*heapPrecedence)(nil)

// chunkHeap is a binary min-heap of chunks ordered by (k1, k2, flow,
// seq). It reimplements container/heap's sift loops on the concrete type
// because the interface{} boxing of heap.Push/heap.Pop allocated on
// every enqueue and dequeue. The algorithms are verbatim container/heap,
// so the heap layout, and with it the serve order, is bit-identical to
// the boxed version.
type chunkHeap []chunk

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

// heapSP, heapBMUX and heapEDF are the map-keyed constructors the heap
// executor shipped with.
func heapSP(level map[core.FlowID]int) *heapPrecedence {
	cp := make(map[core.FlowID]int, len(level))
	for k, v := range level {
		cp[k] = v
	}
	return &heapPrecedence{
		name: "SP",
		keyOf: func(f core.FlowID, slot int, _ float64) (float64, float64) {
			return -float64(cp[f]), float64(slot)
		},
	}
}

func heapBMUX(low core.FlowID) *heapPrecedence {
	return &heapPrecedence{
		name: "BMUX",
		keyOf: func(f core.FlowID, slot int, _ float64) (float64, float64) {
			if f == low {
				return 1, float64(slot)
			}
			return 0, float64(slot)
		},
	}
}

func heapEDF(deadline map[core.FlowID]float64) *heapPrecedence {
	cp := make(map[core.FlowID]float64, len(deadline))
	for k, v := range deadline {
		cp[k] = v
	}
	return &heapPrecedence{
		name: "EDF",
		keyOf: func(f core.FlowID, slot int, _ float64) (float64, float64) {
			return float64(slot) + cp[f], float64(slot)
		},
	}
}

// fifoKey is FIFO's precedence key: arrival slot, then flow id.
func fifoKey(_ core.FlowID, slot int, _ float64) (float64, float64) {
	return float64(slot), 0
}

// Name implements Scheduler.
func (p *heapPrecedence) Name() string { return p.name }

// Enqueue implements Scheduler.
func (p *heapPrecedence) Enqueue(f core.FlowID, slot int, bits float64) {
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
func (p *heapPrecedence) ServeInto(budget float64, out []float64) {
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
func (p *heapPrecedence) Backlog() float64 { return p.backlog }

// QueueLen implements Scheduler.
func (p *heapPrecedence) QueueLen() int { return p.q.Len() }

// headBits implements HeadQueue.
func (p *heapPrecedence) headBits() (core.FlowID, *float64) {
	if p.q.Len() == 0 {
		return 0, nil
	}
	return p.q[0].flow, &p.q[0].bits
}

// popHead implements HeadQueue.
func (p *heapPrecedence) popHead() { p.q.popMin() }

// addBacklog implements HeadQueue.
func (p *heapPrecedence) addBacklog(d float64) { p.backlog += d }

// queueAdmission is one Enqueue of a randomized schedule.
type queueAdmission struct {
	flow core.FlowID
	slot int
	bits float64
}

// queueStep is one step of a randomized schedule: its admissions, then
// one serve.
type queueStep struct {
	admit  []queueAdmission
	budget float64
}

// queueSchedule draws an admission/serve schedule over the given flow
// ids: admissions mostly in slot order but sometimes stale (an earlier,
// possibly negative slot), some with zero or negative bits (no-ops), and
// budgets from zero and sub-threshold (starving) to unbounded
// (draining).
func queueSchedule(seed int64, flows []core.FlowID, steps int) []queueStep {
	rng := randx.NewRand(seed)
	sched := make([]queueStep, steps)
	slot := 0
	for i := range sched {
		slot += int(rng.Float64() * 2)
		for k := int(rng.Float64() * 4); k > 0; k-- {
			a := queueAdmission{flow: flows[int(rng.Float64()*float64(len(flows)))], slot: slot}
			if rng.Float64() < 0.2 {
				a.slot -= int(rng.Float64() * 6)
			}
			switch r := rng.Float64(); {
			case r < 0.05:
				a.bits = 0
			case r < 0.1:
				a.bits = -rng.Float64()
			default:
				a.bits = rng.Float64() * 8
			}
			sched[i].admit = append(sched[i].admit, a)
		}
		switch r := rng.Float64(); {
		case r < 0.05:
			sched[i].budget = 0
		case r < 0.1:
			sched[i].budget = rng.Float64() * 1e-12
		case r < 0.15:
			sched[i].budget = math.Inf(1)
		default:
			sched[i].budget = rng.Float64() * 12
		}
	}
	return sched
}

// requireSameSchedule replays the schedule on got and on the heap
// oracle, then drains both, and requires bit-identical served amounts,
// backlog and queue length after every serve. Flow ids must be below
// nflows.
func requireSameSchedule(t *testing.T, label string, sched []queueStep, nflows int, got, heap Scheduler) {
	t.Helper()
	outGot := make([]float64, nflows)
	outHeap := make([]float64, nflows)
	serve := func(phase string, i int, budget float64) {
		t.Helper()
		clear(outGot)
		clear(outHeap)
		got.ServeInto(budget, outGot)
		heap.ServeInto(budget, outHeap)
		for f := range outGot {
			if outGot[f] != outHeap[f] {
				t.Fatalf("%s %s %d: flow %d served %x, heap %x", label, phase, i, f, outGot[f], outHeap[f])
			}
		}
		if got.Backlog() != heap.Backlog() {
			t.Fatalf("%s %s %d: backlog %x, heap %x", label, phase, i, got.Backlog(), heap.Backlog())
		}
		if got.QueueLen() != heap.QueueLen() {
			t.Fatalf("%s %s %d: queue len %d, heap %d", label, phase, i, got.QueueLen(), heap.QueueLen())
		}
	}
	for i, st := range sched {
		for _, a := range st.admit {
			got.Enqueue(a.flow, a.slot, a.bits)
			heap.Enqueue(a.flow, a.slot, a.bits)
		}
		serve("step", i, st.budget)
	}
	for i := 0; got.QueueLen() > 0 || heap.QueueLen() > 0; i++ {
		if i > 100000 {
			t.Fatalf("%s: drain did not terminate", label)
		}
		serve("drain", i, 3)
	}
}

// TestPrecedenceLanesMatchHeap drives Precedence's per-flow lanes and
// the heap oracle through one randomized schedule under every key
// table the executor runs — SP, BMUX, EDF (with ±Inf deadlines and a
// flow without one) and FIFO — over sparse flow ids, fluid and through
// NonPreemptive. NaN keys are out of domain and not drawn: they
// admit no strict order.
func TestPrecedenceLanesMatchHeap(t *testing.T) {
	flows := []core.FlowID{0, 2, 5, 9}
	level := map[core.FlowID]int{0: 1, 5: 2, 9: -1}
	deadline := map[core.FlowID]float64{0: 3, 5: math.Inf(1), 9: math.Inf(-1)}
	pairs := []struct {
		name  string
		lanes func() *Precedence
		heap  func() *heapPrecedence
	}{
		{"sp", func() *Precedence { return NewSP(level) }, func() *heapPrecedence { return heapSP(level) }},
		{"bmux", func() *Precedence { return NewBMUX(5) }, func() *heapPrecedence { return heapBMUX(5) }},
		{"edf", func() *Precedence { return NewEDF(deadline) }, func() *heapPrecedence { return heapEDF(deadline) }},
		{"fifo", func() *Precedence { return &Precedence{name: "FIFO", addSlot: true} }, newHeapFIFO},
	}
	sched := queueSchedule(23, flows, 5000)
	nflows := int(flows[len(flows)-1]) + 1
	for _, pr := range pairs {
		requireSameSchedule(t, pr.name, sched, nflows, pr.lanes(), pr.heap())
		lanes, err := NewNonPreemptive(pr.lanes(), 1.7)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := NewNonPreemptive(pr.heap(), 1.7)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSchedule(t, "np-"+pr.name, sched, nflows, lanes, heap)
	}
}
