package sim

import (
	"testing"

	"deltasched/internal/core"
)

// newHeapFIFO is FIFO on the heap oracle — the pre-ring implementation,
// kept as the reference the ring is pinned against. Production callers
// get the ring via NewFIFO.
func newHeapFIFO() *heapPrecedence {
	return &heapPrecedence{name: "FIFO", keyOf: fifoKey}
}

// TestFIFORingMatchesHeap drives the ring-buffer FIFO and the heap-backed
// FIFO oracle through one randomized admission/serve schedule and
// requires bit-identical served amounts, backlog, and queue depth after
// every serve. The schedule is deliberately nastier than the tandem's:
// multiple flows, several chunks per slot, slots that jump backwards
// (out-of-order admissions the ring must re-sort via its bubble pass),
// zero and negative bits (ignored), and budgets from starving to
// draining.
func TestFIFORingMatchesHeap(t *testing.T) {
	sched := queueSchedule(17, []core.FlowID{0, 1, 2, 3}, 5000)
	requireSameSchedule(t, "fifo-ring", sched, 4, NewFIFO(), newHeapFIFO())
}
