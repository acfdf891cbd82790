package sim

import (
	"fmt"
	"math"

	"deltasched/internal/core"
)

// NonPreemptive wraps a Precedence scheduler with packetized,
// non-preemptive service: data is transmitted in packets of a fixed size,
// and once a packet starts transmission it completes before the scheduler
// re-evaluates precedence — the real-link behaviour the paper abstracts
// away ("we ignore that packet transmissions cannot be interrupted; the
// assumption can be relaxed at the cost of additional notation"). The
// delay penalty relative to the fluid model is at most one packet
// transmission time per node plus the packetization quantum, which the
// tests verify.
type NonPreemptive struct {
	inner      HeadQueue
	packetSize float64

	// residual transmission state: the packet currently on the wire.
	residBits float64
	residFlow core.FlowID
}

var _ Scheduler = (*NonPreemptive)(nil)

// NewNonPreemptive wraps the given precedence scheduler (any HeadQueue:
// the *Precedence disciplines SP, BMUX and EDF, or the *FIFO ring). The
// packet size must exceed ServeInto's 1e-12 residual tolerance: a packet
// at or below it would leave the queue without being served.
func NewNonPreemptive(inner HeadQueue, packetSize float64) (*NonPreemptive, error) {
	if inner == nil {
		return nil, fmt.Errorf("sim: NonPreemptive needs an inner scheduler")
	}
	if !(packetSize > 1e-12) || math.IsInf(packetSize, 0) {
		return nil, fmt.Errorf("sim: packet size must be finite and above 1e-12, got %g", packetSize)
	}
	return &NonPreemptive{inner: inner, packetSize: packetSize}, nil
}

// Name implements Scheduler.
func (n *NonPreemptive) Name() string {
	return n.inner.Name() + "/packetized"
}

// Enqueue implements Scheduler.
func (n *NonPreemptive) Enqueue(f core.FlowID, slot int, bits float64) {
	n.inner.Enqueue(f, slot, bits)
}

// ServeInto implements Scheduler: finish the packet on the wire first,
// then repeatedly commit whole packets picked by the inner precedence
// order.
func (n *NonPreemptive) ServeInto(budget float64, out []float64) {
	for budget > 1e-12 {
		if n.residBits > 1e-12 {
			take := math.Min(budget, n.residBits)
			out[n.residFlow] += take
			n.residBits -= take
			budget -= take
			continue
		}
		flow, bits := n.inner.headBits()
		if bits == nil {
			return
		}
		// Commit the head-of-line chunk's next packet, non-preemptively.
		pkt := math.Min(n.packetSize, *bits)
		*bits -= pkt
		n.inner.addBacklog(-pkt)
		if *bits <= 1e-12 {
			n.inner.addBacklog(*bits)
			n.inner.popHead()
		}
		n.residFlow = flow
		n.residBits = pkt
	}
	if bl := n.inner.Backlog(); bl < 0 {
		n.inner.addBacklog(-bl)
	}
}

// Backlog implements Scheduler: queued plus on-the-wire bits.
func (n *NonPreemptive) Backlog() float64 {
	return n.inner.Backlog() + n.residBits
}

// QueueLen implements Scheduler: queued chunks plus the packet on the
// wire, if any.
func (n *NonPreemptive) QueueLen() int {
	ql := n.inner.QueueLen()
	if n.residBits > 1e-12 {
		ql++
	}
	return ql
}
