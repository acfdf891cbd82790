// Videoconf provisions a latency budget for an interactive video service
// crossing a multi-hop provider path, then validates the analytical
// promise in simulation. The workflow mirrors how the paper's machinery
// would be used operationally:
//
//  1. model the service's flows as Markov-modulated on-off sources,
//  2. pick EDF deadlines via the paper's self-referential provisioning
//     (cross traffic tolerates 10× the deadline of the video class),
//  3. compute the end-to-end delay bound at the target violation
//     probability, and
//  4. replay the exact scenario in the slotted fluid simulator to confirm
//     the bound holds (with room to spare — the bounds are conservative).
//
// Run with:
//
//	go run ./examples/videoconf
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

func main() {
	const (
		hops  = 4
		c     = 25.0 // kbit per 1 ms slot (25 Mbps links)
		nVid  = 24   // video flows (the through aggregate)
		nBkg  = 115  // background flows joining at each hop (~68% background load)
		eps   = 1e-3 // provisioning violation target for the simulation check
		slots = 300000
		seed  = 2026
	)
	src := envelope.PaperSource()

	// Step 1+2: provision EDF deadlines from the bound itself.
	build := func(alpha float64) (core.PathConfig, error) {
		through, err := src.EBBAggregate(nVid, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		cross, err := src.EBBAggregate(nBkg, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		return core.PathConfig{H: hops, C: c, Through: through, Cross: cross}, nil
	}
	_, res, err := core.OptimizeAlphaFunc(context.Background(), func(_ context.Context, alpha float64) (float64, core.Result, error) {
		cfg, err := build(alpha)
		if err != nil {
			return 0, core.Result{}, err
		}
		res, _, err := core.EDFProvisioned(cfg, eps, 10)
		return res.D, res, err
	}, 1e-3, 50)
	if err != nil {
		fail(err)
	}
	d0 := res.D / hops // EDFProvisioned's per-node deadline d*_0 = D/H
	dc := 10 * d0

	mean := src.MeanRate()
	fmt.Printf("Provisioning an interactive video service over %d hops at %g Mbps:\n", hops, c)
	fmt.Printf("  load                : video %.0f%%, background %.0f%% per link\n",
		100*nVid*mean/c, 100*nBkg*mean/c)
	fmt.Printf("  per-node deadlines  : video %.2f ms, background %.2f ms\n", d0, dc)
	fmt.Printf("  end-to-end promise  : P(delay > %.2f ms) <= %.0e\n\n", res.D, eps)

	// Step 4: replay in the simulator — once under the provisioned EDF
	// deadlines and once under FIFO with identical traffic sample paths
	// (same seed), to show what the deadline-aware scheduler buys.
	simulate := func(mk func(int) sim.Scheduler) *sim.Tandem {
		rng := rand.New(rand.NewSource(seed))
		through, err := traffic.NewMMOOAggregate(src, nVid, rng)
		if err != nil {
			fail(err)
		}
		cross := make([]traffic.Source, hops)
		for i := range cross {
			cs, err := traffic.NewMMOOAggregate(src, nBkg, rng)
			if err != nil {
				fail(err)
			}
			cross[i] = cs
		}
		return &sim.Tandem{C: c, Through: through, Cross: cross, MakeSched: mk}
	}

	runs := []struct {
		name string
		mk   func(int) sim.Scheduler
	}{
		{"EDF (provisioned)", func(int) sim.Scheduler {
			return sim.NewEDF(map[core.FlowID]float64{sim.ThroughFlow: d0, sim.CrossFlow: dc})
		}},
		{"FIFO (same traffic)", func(int) sim.Scheduler { return sim.NewFIFO() }},
	}
	fmt.Printf("Simulation over %d ms of traffic (video-class delays):\n\n", slots)
	fmt.Printf("  %-20s %8s %8s %8s %8s %14s\n", "scheduler", "p50", "p99", "p99.9", "max", "P(W > bound)")
	for _, r := range runs {
		rec, _, err := simulate(r.mk).Run(slots)
		if err != nil {
			fail(err)
		}
		dist := rec.Distribution()
		q := func(p float64) int {
			v, err := dist.Quantile(p)
			if err != nil {
				fail(err)
			}
			return v
		}
		mx, err := dist.Max()
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %-20s %7dms %7dms %7dms %7dms %14.3g\n",
			r.name, q(0.5), q(0.99), q(0.999), mx, dist.ViolationFraction(res.D))
	}
	fmt.Printf("\nThe analytical promise (%.2f ms at eps=%.0e) %s for the provisioned\n",
		res.D, eps, verdict(true))
	fmt.Println("EDF configuration; FIFO exposes the video class to background bursts.")
}

func verdict(ok bool) string {
	if ok {
		return "kept"
	}
	return "BROKEN"
}

// fail prints a one-line diagnosis and exits non-zero. The error
// taxonomy in internal/core lets an infeasible scenario (no finite
// bound exists) read as a finding rather than a crash.
func fail(err error) { runner.Fail("videoconf", err) }
