package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/obs"
)

// TestTracingDoesNoExtraWork: a span in Setup.Ctx is observation only. A
// traced Fig. 4 point returns the untraced bound at the untraced cost —
// the α sweep traces its final probe instead of pricing the winner
// again — and its trace still reaches the inner minimization.
func TestTracingDoesNoExtraWork(t *testing.T) {
	r := obs.NewRegistry()
	p := &core.OptProbe{
		DelayBoundCalls: r.Counter("delaybound_calls", "", nil),
		AlphaProbes:     r.Counter("alpha_probes", "", nil),
		EDFBisections:   r.Counter("edf_bisections", "", nil),
		AdditiveProbes:  r.Counter("additive_probes", "", nil),
	}
	core.SetOptProbe(p)
	t.Cleanup(func() { core.SetOptProbe(nil) })
	type cost struct{ db, alpha, edf, add int64 }
	snap := func() cost {
		return cost{p.DelayBoundCalls.Load(), p.AlphaProbes.Load(), p.EDFBisections.Load(), p.AdditiveProbes.Load()}
	}
	s := PaperSetup()
	n := s.FlowCount(0.5) / 2 // Fig. 4's N0 = Nc at U = 50%
	for _, tc := range []struct {
		sched Scheduler
		want  []string // spans the traced point must reach
	}{
		{BMUX, []string{"OptimizeAlpha", "DelayBound", "innerMinimize"}},
		{EDFRatio10, []string{"OptimizeAlpha", "EDFProvisioned", "DelayBound", "innerMinimize"}},
		{BMUXAdditive, []string{"OptimizeAlpha", "AdditiveBound"}},
	} {
		t.Run(tc.sched.key(), func(t *testing.T) {
			price := func(ctx context.Context) (float64, cost) {
				t.Helper()
				before := snap()
				s.Ctx = ctx
				d, err := s.BoundModel(s.Source, tc.sched, 4, n, n)
				if err != nil {
					t.Fatal(err)
				}
				after := snap()
				return d, cost{after.db - before.db, after.alpha - before.alpha, after.edf - before.edf, after.add - before.add}
			}
			plainD, plainCost := price(context.Background())

			tr := obs.NewTracer()
			ctx, root := tr.Root(context.Background(), "point")
			tracedD, tracedCost := price(ctx)
			root.End()

			if tracedD != plainD {
				t.Errorf("traced bound %v != untraced %v", tracedD, plainD)
			}
			if tracedCost != plainCost {
				t.Errorf("traced run cost %+v, untraced %+v: tracing priced extra bounds", tracedCost, plainCost)
			}
			if plainCost.alpha == 0 {
				t.Error("the probe counted no α probes")
			}
			spans := map[string]bool{}
			var walk func(n *obs.SpanNode)
			walk = func(n *obs.SpanNode) {
				spans[n.Name] = true
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(tr.Tree())
			for _, name := range tc.want {
				if !spans[name] {
					t.Errorf("trace has no %q span", name)
				}
			}
		})
	}
}

// TestBoundModelStopsWithinOneGammaProbe: cancelling Setup.Ctx stops a
// long single point at its next γ probe. At H = 4000 one DelayBound runs
// for seconds, but one γ probe for tens of milliseconds.
func TestBoundModelStopsWithinOneGammaProbe(t *testing.T) {
	s := PaperSetup()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctx = ctx
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := s.BoundModel(s.Source, BMUX, 4000, 100, 100)
	if took := time.Since(start); took > time.Second {
		t.Errorf("BoundModel returned %v after it started, %v after the cancel; want < 1s", took, took-100*time.Millisecond)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled BoundModel returned %v, want context.Canceled", err)
	}
}
