package core

import (
	"errors"
	"testing"

	"deltasched/internal/minplus"
)

func TestDelayBoundDetFIFOLeakyBuckets(t *testing.T) {
	// Classic tight FIFO bound: d = ΣB/C when Σr <= C.
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),
		1: minplus.Affine(3, 12),
		2: minplus.Affine(1, 6),
	}
	d, err := DelayBoundDet(10, 0, envs, FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, d, 22.0/10, 1e-6, "FIFO: total burst over capacity")
}

func TestDelayBoundDetStaticPriority(t *testing.T) {
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),  // high priority
		1: minplus.Affine(3, 12), // low priority
	}
	p := StaticPriority{Level: map[FlowID]int{0: 2, 1: 1}}

	// High-priority flow sees only its own burst: d = B_0/C.
	dHigh, err := DelayBoundDet(10, 0, envs, p)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, dHigh, 4.0/10, 1e-6, "high priority: own burst only")

	// Low-priority flow: d = (B_0+B_1)/(C−r_0), the classic leftover bound.
	dLow, err := DelayBoundDet(10, 1, envs, p)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, dLow, 16.0/8, 1e-6, "low priority: leftover capacity")
}

func TestDelayBoundDetEDFLimits(t *testing.T) {
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),
		1: minplus.Affine(3, 12),
	}
	dFIFO, err := DelayBoundDet(10, 0, envs, FIFO{})
	if err != nil {
		t.Fatal(err)
	}

	// Equal deadlines: EDF degenerates to FIFO.
	dEq, err := DelayBoundDet(10, 0, envs, EDF{Deadline: map[FlowID]float64{0: 5, 1: 5}})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, dEq, dFIFO, 1e-6, "equal-deadline EDF equals FIFO")

	// Tight own deadline (cross very loose): approaches strict priority.
	dTight, err := DelayBoundDet(10, 0, envs, EDF{Deadline: map[FlowID]float64{0: 0.01, 1: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, dTight, 4.0/10, 1e-4, "favourable EDF approaches strict priority")

	// Loose own deadline: approaches blind multiplexing,
	// d = (B_0+B_1)/(C−r_1).
	dLoose, err := DelayBoundDet(10, 0, envs, EDF{Deadline: map[FlowID]float64{0: 1e6, 1: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, dLoose, 16.0/7, 1e-4, "unfavourable EDF approaches BMUX")

	// Monotonicity in the own deadline.
	if !(dTight <= dEq && dEq <= dLoose) {
		t.Errorf("EDF bounds not monotone: %g, %g, %g", dTight, dEq, dLoose)
	}
}

func TestDelayBoundDetUnstable(t *testing.T) {
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(6, 1),
		1: minplus.Affine(6, 1),
	}
	if _, err := DelayBoundDet(10, 0, envs, FIFO{}); !errors.Is(err, ErrUnstable) {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}
}

func TestSchedulableDetMonotoneInDelay(t *testing.T) {
	envs := map[FlowID]minplus.Curve{
		0: minplus.Affine(2, 4),
		1: minplus.Affine(3, 12),
	}
	d, err := DelayBoundDet(10, 0, envs, EDF{Deadline: map[FlowID]float64{0: 1, 1: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1, 1.5, 3} {
		ok, err := SchedulableDet(10, 0, envs, EDF{Deadline: map[FlowID]float64{0: 1, 1: 3}}, d*f)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("delay %g×bound should be schedulable", f)
		}
	}
	ok, err := SchedulableDet(10, 0, envs, EDF{Deadline: map[FlowID]float64{0: 1, 1: 3}}, d*0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("delay below the minimal bound should not be schedulable")
	}
}
