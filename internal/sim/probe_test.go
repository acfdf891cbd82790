package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/obs"
	"deltasched/internal/traffic"
)

// schedulerFactories returns one factory per discipline, covering every
// Scheduler implementation in the package.
func schedulerFactories(t *testing.T) map[string]func(int) Scheduler {
	t.Helper()
	return map[string]func(int) Scheduler{
		"fifo": func(int) Scheduler { return NewFIFO() },
		"bmux": func(int) Scheduler { return NewBMUX(ThroughFlow) },
		"sp": func(int) Scheduler {
			return NewSP(map[core.FlowID]int{ThroughFlow: 2, CrossFlow: 1})
		},
		"edf": func(int) Scheduler {
			return NewEDF(map[core.FlowID]float64{ThroughFlow: 5, CrossFlow: 50})
		},
		"gps": func(int) Scheduler {
			g, err := NewGPS(map[core.FlowID]float64{ThroughFlow: 1, CrossFlow: 2})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"drr": func(int) Scheduler {
			d, err := NewDRR(map[core.FlowID]float64{ThroughFlow: 3, CrossFlow: 3})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"fifo/packetized": func(int) Scheduler {
			np, err := NewNonPreemptive(NewFIFO(), 1.5)
			if err != nil {
				t.Fatal(err)
			}
			return np
		},
	}
}

// buildNetwork assembles a 3-node Fig. 1-style network with a fixed seed:
// a through flow over all nodes plus one single-hop cross flow per node.
func buildNetwork(t *testing.T, mk func(int) Scheduler, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := envelope.PaperSource()
	through, err := traffic.NewMMOOAggregate(m, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	flows := []RoutedFlow{{Src: through, Route: []int{0, 1, 2}}}
	for node := 0; node < 3; node++ {
		cs, err := traffic.NewMMOOAggregate(m, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, RoutedFlow{Src: cs, Route: []int{node}})
	}
	return &Network{
		Capacities: []float64{6, 6, 6},
		MakeSched:  mk,
		Flows:      flows,
	}
}

// TestNetworkProbeParity asserts that attaching a probe to Network.Run
// leaves the delay recorders bit-identical to an uninstrumented run with
// the same seed, for every scheduler.
func TestNetworkProbeParity(t *testing.T) {
	const slots = 4000
	for name, mk := range schedulerFactories(t) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			plain := buildNetwork(t, mk, 42)
			base, err := plain.Run(slots)
			if err != nil {
				t.Fatal(err)
			}

			for _, every := range []int{1, 7} {
				probe := &obs.SimProbe{Every: every}
				instr := buildNetwork(t, mk, 42)
				instr.Probe = probe
				calls := 0
				instr.Progress = func(done, total int) {
					calls++
					if done < 1 || done > total || total != slots {
						t.Fatalf("bad progress callback: done=%d total=%d", done, total)
					}
				}
				got, err := instr.Run(slots)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("every=%d: instrumented recorders differ from the plain run", every)
				}
				if calls == 0 {
					t.Fatal("progress callback never fired")
				}

				sums := probe.Summaries()
				if len(sums) != 3 {
					t.Fatalf("expected 3 node summaries, got %d", len(sums))
				}
				for _, s := range sums {
					if s.Samples == 0 {
						t.Fatalf("node %d never sampled", s.Node)
					}
					if s.Utilization < 0 || s.Utilization > 1+1e-9 {
						t.Fatalf("node %d utilization %g outside [0,1]", s.Node, s.Utilization)
					}
					if s.MaxQueueLen < 0 {
						t.Fatalf("node %d: scheduler %s should expose a queue depth", s.Node, name)
					}
				}
			}
		})
	}
}

// TestTandemProbeParity is the same guarantee for Tandem.Run, which has
// its own serve loop.
func TestTandemProbeParity(t *testing.T) {
	const slots = 4000
	buildTandem := func(mk func(int) Scheduler, seed int64) *Tandem {
		rng := rand.New(rand.NewSource(seed))
		m := envelope.PaperSource()
		through, err := traffic.NewMMOOAggregate(m, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross := make([]traffic.Source, 3)
		for i := range cross {
			cs, err := traffic.NewMMOOAggregate(m, 12, rng)
			if err != nil {
				t.Fatal(err)
			}
			cross[i] = cs
		}
		return &Tandem{C: 6, Through: through, Cross: cross, MakeSched: mk}
	}
	for name, mk := range schedulerFactories(t) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			plain := buildTandem(mk, 7)
			baseRec, baseStats, err := plain.Run(slots)
			if err != nil {
				t.Fatal(err)
			}

			probe := &obs.SimProbe{}
			instr := buildTandem(mk, 7)
			instr.Probe = probe
			instr.ProgressEvery = 512
			calls := 0
			instr.Progress = func(done, total int) { calls++ }
			gotRec, gotStats, err := instr.Run(slots)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseRec, gotRec) {
				t.Fatal("instrumented tandem recorder differs from the plain run")
			}
			if baseStats != gotStats {
				t.Fatalf("stats differ: %+v vs %+v", baseStats, gotStats)
			}
			if calls == 0 {
				t.Fatal("progress callback never fired")
			}
			sums := probe.Summaries()
			if len(sums) != 3 {
				t.Fatalf("expected 3 node summaries, got %d", len(sums))
			}
			for _, s := range sums {
				if s.Samples != slots {
					t.Fatalf("node %d sampled %d slots, want %d", s.Node, s.Samples, slots)
				}
			}
		})
	}
}

// TestQueueLenAllSchedulers pins the QueueLen contract: enqueued work is
// visible, served work drains it.
func TestQueueLenAllSchedulers(t *testing.T) {
	for name, mk := range schedulerFactories(t) {
		s := mk(0)
		if s.QueueLen() != 0 {
			t.Fatalf("%s: fresh scheduler queue len = %d", name, s.QueueLen())
		}
		s.Enqueue(ThroughFlow, 0, 4)
		s.Enqueue(CrossFlow, 0, 4)
		if s.QueueLen() == 0 {
			t.Fatalf("%s: queue len must reflect enqueued chunks", name)
		}
		serveAll(s, 1000)
		if s.QueueLen() != 0 {
			t.Fatalf("%s: queue len = %d after draining serve", name, s.QueueLen())
		}
	}
}
