package sim

import (
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/measure"
)

// tandemAllocs measures the total heap allocations of one full tandem
// run of the given horizon, including source construction (constant per
// run). Comparing two horizons cancels the constant setup term, leaving
// the per-slot allocation rate.
func tandemAllocs(t *testing.T, slots int, sketch bool, mk func(int) Scheduler) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		through, cross := mkTandemSources(1, 3, 8, 16, false)
		td := &Tandem{C: 11, Through: through, Cross: cross, MakeSched: mk}
		var sr *measure.StreamRecorder
		if sketch {
			sr = measure.NewStreamRecorder(measure.NewSketch())
			td.Sink = sr
		}
		if _, _, err := td.Run(slots); err != nil {
			t.Fatal(err)
		}
		if sr != nil {
			sr.Finish()
		}
	})
}

// TestTandemRunAllocFloor pins the block engine's steady state at zero
// heap allocations per slot: block buffers, recorder backing arrays, and
// sketch scratch are sized up front, so tripling the horizon adds 8192
// slots but must not add a per-slot allocation term. The only
// horizon-coupled allocations allowed are queue capacity doublings (the
// FIFO ring, Precedence's lanes) — deeper backlog excursions appear as
// the horizon grows, O(log slots) events in total — so the budget is a
// small constant, three orders of magnitude below one-alloc-per-slot.
// Asserted for the fused all-FIFO pass and for EDF nodes on the generic
// pass, each on both measurement sinks: the retained-curve exact
// recorder and the streaming sketch.
func TestTandemRunAllocFloor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sketch bool
		mk     func(int) Scheduler
	}{
		{"fifo/exact", false, func(int) Scheduler { return NewFIFO() }},
		{"fifo/sketch", true, func(int) Scheduler { return NewFIFO() }},
		{"edf/exact", false, edfAllocSched},
		{"edf/sketch", true, edfAllocSched},
	} {
		short := tandemAllocs(t, 4096, tc.sketch, tc.mk)
		long := tandemAllocs(t, 12288, tc.sketch, tc.mk)
		t.Logf("%s: %g allocs at 4096 slots, %g at 12288", tc.name, short, long)
		if long > short+6 {
			t.Errorf("%s: %g allocs at 4096 slots vs %g at 12288: %g allocs per extra slot, want 0",
				tc.name, short, long, (long-short)/8192)
		}
	}
}

// edfAllocSched is the EDF node of the allocation floor: deadlines 5
// and 50 slots, netsim's defaults.
func edfAllocSched(int) Scheduler {
	return NewEDF(map[core.FlowID]float64{ThroughFlow: 5, CrossFlow: 50})
}
