package sim

import (
	"errors"
	"fmt"

	"deltasched/internal/core"
	"deltasched/internal/measure"
	"deltasched/internal/traffic"
)

// RoutedFlow is a traffic source following a fixed route through a
// feed-forward network. Routes must be strictly increasing node indices
// (feed-forward order), which guarantees cut-through forwarding within a
// slot is well defined.
type RoutedFlow struct {
	Src   traffic.Source
	Route []int
}

// Network generalizes Tandem to arbitrary feed-forward topologies with any
// number of routed flows: cross traffic may share several consecutive
// hops with the through traffic (a scenario outside the paper's Fig. 1
// model, where cross flows live for exactly one hop — useful for exploring
// how correlated interference changes the picture). Flow f is identified
// by its index in Flows everywhere, including in scheduler parameters.
type Network struct {
	Capacities []float64                // per-node capacities
	MakeSched  func(node int) Scheduler // scheduler factory per node
	Flows      []RoutedFlow

	// Probe, when non-nil, observes every node's post-service state on
	// the slots it elects to sample (see Probe). Probes never alter the
	// simulation: a run with a probe attached is bit-identical to one
	// without.
	Probe Probe

	// Progress, when non-nil, is invoked every ProgressEvery slots
	// (default 1000) and once after the final slot, with the number of
	// completed slots and the total.
	Progress      func(done, total int)
	ProgressEvery int
}

// Run advances the network and returns one end-to-end delay recorder per
// flow (ingress arrivals vs. final-node departures).
func (n *Network) Run(slots int) ([]*measure.DelayRecorder, error) {
	if len(n.Capacities) == 0 {
		return nil, errors.New("sim: network needs at least one node")
	}
	for i, c := range n.Capacities {
		if c <= 0 {
			return nil, fmt.Errorf("sim: node %d capacity must be positive, got %g", i, c)
		}
	}
	if n.MakeSched == nil {
		return nil, errors.New("sim: network needs a scheduler factory")
	}
	if len(n.Flows) == 0 {
		return nil, errors.New("sim: network needs at least one flow")
	}
	for fi, f := range n.Flows {
		if f.Src == nil {
			return nil, fmt.Errorf("sim: flow %d has no source", fi)
		}
		if len(f.Route) == 0 {
			return nil, fmt.Errorf("sim: flow %d has an empty route", fi)
		}
		prev := -1
		for _, node := range f.Route {
			if node < 0 || node >= len(n.Capacities) {
				return nil, fmt.Errorf("sim: flow %d routes through unknown node %d", fi, node)
			}
			if node <= prev {
				return nil, fmt.Errorf("sim: flow %d route must be strictly increasing (feed-forward), got %v",
					fi, f.Route)
			}
			prev = node
		}
	}

	nodes := make([]Scheduler, len(n.Capacities))
	for i := range nodes {
		nodes[i] = n.MakeSched(i)
		if nodes[i] == nil {
			return nil, fmt.Errorf("sim: scheduler factory returned nil for node %d", i)
		}
	}
	// hop[f][node] = position of node in flow f's route (-1 if absent).
	nextHop := make([][]int, len(n.Flows))
	for fi, f := range n.Flows {
		nextHop[fi] = make([]int, len(n.Capacities))
		for i := range nextHop[fi] {
			nextHop[fi][i] = -1
		}
		for pos, node := range f.Route {
			if pos+1 < len(f.Route) {
				nextHop[fi][node] = f.Route[pos+1]
			}
		}
	}

	recs := make([]*measure.DelayRecorder, len(n.Flows))
	cumA := make([]float64, len(n.Flows))
	cumD := make([]float64, len(n.Flows))
	for i := range recs {
		recs[i] = &measure.DelayRecorder{}
	}

	progressEvery := n.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 1000
	}

	// Flow ids index Flows, so one dense serve output spans them all, and
	// forwarding walks flows in id order — deterministic even under probes.
	out := make([]float64, len(n.Flows))
	for slot := 0; slot < slots; slot++ {
		probing := n.Probe != nil && n.Probe.Sample(slot)
		// External arrivals at each flow's ingress.
		for fi, f := range n.Flows {
			a := f.Src.Next()
			cumA[fi] += a
			nodes[f.Route[0]].Enqueue(core.FlowID(fi), slot, a)
		}
		// Serve nodes in feed-forward order; forward within the slot.
		for node := 0; node < len(nodes); node++ {
			clear(out)
			nodes[node].ServeInto(n.Capacities[node], out)
			if probing {
				total := 0.0
				for _, b := range out {
					total += b
				}
				observeNode(n.Probe, nodes[node], node, slot, total, n.Capacities[node])
			}
			for fi, bits := range out {
				if bits <= 0 {
					continue
				}
				if nh := nextHop[fi][node]; nh >= 0 {
					nodes[nh].Enqueue(core.FlowID(fi), slot, bits)
				} else {
					cumD[fi] += bits
				}
			}
		}
		for fi := range n.Flows {
			if err := recs[fi].Record(cumA[fi], cumD[fi]); err != nil {
				return nil, fmt.Errorf("sim: flow %d: %w", fi, err)
			}
		}
		if n.Progress != nil && (slot+1)%progressEvery == 0 {
			n.Progress(slot+1, slots)
		}
	}
	if n.Progress != nil && slots%progressEvery != 0 {
		n.Progress(slots, slots)
	}
	return recs, nil
}
