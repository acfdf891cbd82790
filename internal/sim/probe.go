package sim

// Probe observes per-node scheduler state while a simulation runs. It is
// the simulator-side contract of the observability layer: internal/obs
// provides a concrete collector (obs.SimProbe) that satisfies it
// structurally, so sim stays free of observability dependencies.
//
// The contract is deliberately pull-gated: the simulator asks Sample once
// per slot and only computes the (slightly costly) per-node arguments —
// total served bits, backlog, queue depth — for sampled slots. With a nil
// probe the only cost on the hot loop is one pointer comparison per slot,
// and results are bit-identical to an uninstrumented run (probes never
// touch the RNG or the schedulers).
type Probe interface {
	// Sample reports whether this slot should be observed.
	Sample(slot int) bool
	// ObserveNode receives one node's post-service state for a sampled
	// slot: bits transmitted this slot, the slot's capacity budget, the
	// backlog left buffered, and the scheduler's QueueLen.
	ObserveNode(node, slot int, served, capacity, backlog float64, queueLen int)
}

// observeNode forwards one node's state to the probe.
func observeNode(p Probe, sched Scheduler, node, slot int, served, capacity float64) {
	p.ObserveNode(node, slot, served, capacity, sched.Backlog(), sched.QueueLen())
}
