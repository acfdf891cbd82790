// Multiclass analyses one EDF link shared by three service classes
// (voice, video, bulk) with the paper's multi-flow single-node machinery
// (Section III-B): per-class probabilistic delay bounds from the Δ-matrix
// of an EDF scheduler, validated against a slotted simulation of the same
// node. It demonstrates that the Δ-scheduler abstraction handles arbitrary
// flow sets, not just the through/cross split of the end-to-end model.
//
// Run with:
//
//	go run ./examples/multiclass
package main

import (
	"context"
	"fmt"
	"math/rand"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/runner"
	"deltasched/internal/sim"
	"deltasched/internal/traffic"
)

type class struct {
	name     string
	flows    int
	deadline float64 // EDF per-node deadline [ms]
	source   envelope.MMOO
}

func main() {
	const (
		capacity = 50.0 // kbit per 1 ms slot (50 Mbps)
		eps      = 1e-4
		slots    = 400000
	)
	// Three classes over the same physical model, different populations
	// and deadlines.
	base := envelope.PaperSource()
	classes := []class{
		{name: "voice", flows: 40, deadline: 5, source: base},
		{name: "video", flows: 80, deadline: 20, source: base},
		{name: "bulk", flows: 120, deadline: 200, source: base},
	}

	fmt.Printf("EDF link at %g Mbps, ε = %.0e:\n\n", capacity, eps)
	fmt.Printf("%-8s %6s %10s %14s %14s %14s %10s\n",
		"class", "flows", "deadline", "bound [ms]", "sim p99.9", "sim max", "P(W>bound)")

	// Simulate the shared node once; measure each class.
	rng := rand.New(rand.NewSource(7))
	sources := make(map[core.FlowID]traffic.Source, len(classes))
	deadlines := make(map[core.FlowID]float64, len(classes))
	for i, cl := range classes {
		agg, err := traffic.NewMMOOAggregate(cl.source, cl.flows, rng)
		if err != nil {
			fail(err)
		}
		sources[core.FlowID(i)] = agg
		deadlines[core.FlowID(i)] = cl.deadline
	}
	node := &sim.SingleNode{C: capacity, Sched: sim.NewEDF(deadlines), Sources: sources}
	recs, err := node.Run(slots)
	if err != nil {
		fail(err)
	}

	for i, cl := range classes {
		// Analytical bound for class i: every other class is cross traffic
		// with Δ = d*_i − d*_k.
		_, res, err := core.OptimizeAlphaFunc(context.Background(), func(_ context.Context, a float64) (float64, core.NodeResult, error) {
			through, cross, err := buildFlows(classes, i, a)
			if err != nil {
				return 0, core.NodeResult{}, err
			}
			r, err := core.DelayBoundStatNode(capacity, through, cross, eps)
			return r.D, r, err
		}, 1e-3, 50)
		if err != nil {
			fail(err)
		}

		dist := recs[core.FlowID(i)].Distribution()
		q, err := dist.Quantile(0.999)
		if err != nil {
			fail(err)
		}
		mx, err := dist.Max()
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-8s %6d %8gms %12.2fms %12dms %12dms %10.2g\n",
			cl.name, cl.flows, cl.deadline, res.D, q, mx, dist.ViolationFraction(res.D))
	}

	fmt.Println("\nEach class gets a bound matched to its own deadline; the simulated")
	fmt.Println("tails stay below the analytical promises with room to spare (the")
	fmt.Println("bounds hold for worst-case correlations the simulation cannot show).")
}

// buildFlows assembles the tagged class and its cross flows at decay α.
func buildFlows(classes []class, tagged int, alpha float64) (envelope.EBB, []core.StatFlow, error) {
	through, err := classes[tagged].source.EBBAggregate(float64(classes[tagged].flows), alpha)
	if err != nil {
		return envelope.EBB{}, nil, err
	}
	var cross []core.StatFlow
	for k, cl := range classes {
		if k == tagged {
			continue
		}
		ebb, err := cl.source.EBBAggregate(float64(cl.flows), alpha)
		if err != nil {
			return envelope.EBB{}, nil, err
		}
		cross = append(cross, core.StatFlow{
			EBB:   ebb,
			Delta: classes[tagged].deadline - cl.deadline,
		})
	}
	return through, cross, nil
}

// fail prints a one-line diagnosis and exits non-zero. The error
// taxonomy in internal/core lets an infeasible scenario (no finite
// bound exists) read as a finding rather than a crash.
func fail(err error) { runner.Fail("multiclass", err) }
