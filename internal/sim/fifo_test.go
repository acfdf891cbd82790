package sim

import (
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/randx"
)

// newHeapFIFO is the generic-heap FIFO — the pre-ring implementation,
// kept as the reference the ring is pinned against. Production callers
// get the ring via NewFIFO.
func newHeapFIFO() *Precedence {
	return &Precedence{
		name:  "FIFO",
		keyOf: func(_ core.FlowID, slot int, _ float64) (float64, float64) { return float64(slot), 0 },
	}
}

// TestFIFORingMatchesHeap drives the ring-buffer FIFO and the heap-backed
// Precedence FIFO through an identical randomized admission/serve
// schedule and requires bit-identical served amounts, backlog, and queue
// depth after every operation. The schedule is deliberately nastier than
// the tandem's: multiple flows, several chunks per slot, slots that jump
// backwards (out-of-order admissions the ring must re-sort via its bubble
// pass), zero and negative bits (ignored), and budgets from starving to
// draining.
func TestFIFORingMatchesHeap(t *testing.T) {
	const (
		flows = 4
		steps = 5000
	)
	rng := randx.NewRand(17)
	ring := NewFIFO()
	heap := newHeapFIFO()

	outRing := make([]float64, flows)
	outHeap := make([]float64, flows)

	slot := 0
	for step := 0; step < steps; step++ {
		// Admissions: mostly in slot order, sometimes stale (earlier slot),
		// 0-3 chunks per step across random flows.
		slot += int(rng.Float64() * 2)
		for k := int(rng.Float64() * 4); k > 0; k-- {
			f := core.FlowID(rng.Float64() * flows)
			s := slot
			if rng.Float64() < 0.2 {
				s -= int(rng.Float64() * 6) // stale admission, possibly negative
			}
			bits := rng.Float64()*8 - 0.5 // sometimes <= 0: must be a no-op
			ring.Enqueue(f, s, bits)
			heap.Enqueue(f, s, bits)
		}

		budget := rng.Float64() * 12
		clear(outRing)
		clear(outHeap)
		ring.ServeInto(budget, outRing)
		heap.ServeInto(budget, outHeap)
		for i := range outRing {
			if outRing[i] != outHeap[i] {
				t.Fatalf("step %d: ServeInto flow %d: ring %x, heap %x", step, i, outRing[i], outHeap[i])
			}
		}

		if ring.Backlog() != heap.Backlog() {
			t.Fatalf("step %d: backlog: ring %x, heap %x", step, ring.Backlog(), heap.Backlog())
		}
		if ring.QueueLen() != heap.QueueLen() {
			t.Fatalf("step %d: queue len: ring %d, heap %d", step, ring.QueueLen(), heap.QueueLen())
		}
	}

	// Drain both and require the tail of the serve sequence to agree too.
	for ring.QueueLen() > 0 || heap.QueueLen() > 0 {
		for i := range outRing {
			outRing[i], outHeap[i] = 0, 0
		}
		ring.ServeInto(3, outRing)
		heap.ServeInto(3, outHeap)
		for i := range outRing {
			if outRing[i] != outHeap[i] {
				t.Fatalf("drain: flow %d: ring %x, heap %x", i, outRing[i], outHeap[i])
			}
		}
		if ring.Backlog() != heap.Backlog() {
			t.Fatalf("drain: backlog: ring %x, heap %x", ring.Backlog(), heap.Backlog())
		}
	}
	if ring.Backlog() != 0 && heap.Backlog() != 0 {
		// Residues clamp to zero on both sides; reaching here means both
		// kept identical nonzero dust, which the loop above already proved
		// equal — nothing more to assert.
		t.Logf("residual backlog %x on both implementations", ring.Backlog())
	}
}
