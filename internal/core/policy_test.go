package core

import (
	"math"
	"testing"
)

func TestFIFODeltas(t *testing.T) {
	p := FIFO{}
	for j := FlowID(0); j < 3; j++ {
		for k := FlowID(0); k < 3; k++ {
			if d := p.Delta(j, k); d != 0 {
				t.Fatalf("FIFO Delta(%d,%d) = %g, want 0", j, k, d)
			}
		}
	}
}

func TestStaticPriorityDeltas(t *testing.T) {
	p := StaticPriority{Level: map[FlowID]int{0: 2, 1: 1, 2: 1}}
	tests := []struct {
		j, k FlowID
		want float64
	}{
		{0, 1, math.Inf(-1)}, // flow 1 has lower priority: never precedes 0
		{1, 0, math.Inf(1)},  // flow 0 has higher priority: always precedes 1
		{1, 2, 0},            // equal priority: FIFO
		{0, 0, 0},            // locally FIFO
	}
	for _, tt := range tests {
		if got := p.Delta(tt.j, tt.k); got != tt.want {
			t.Errorf("SP Delta(%d,%d) = %g, want %g", tt.j, tt.k, got, tt.want)
		}
	}
}

func TestBMUXDeltas(t *testing.T) {
	p := BMUX{Low: 0}
	if got := p.Delta(0, 1); !math.IsInf(got, 1) {
		t.Errorf("low flow must yield to all: got %g", got)
	}
	if got := p.Delta(1, 0); !math.IsInf(got, -1) {
		t.Errorf("low flow never precedes others: got %g", got)
	}
	if got := p.Delta(1, 2); got != 0 {
		t.Errorf("non-low flows are FIFO among themselves: got %g", got)
	}
	if got := p.Delta(0, 0); got != 0 {
		t.Errorf("locally FIFO violated: got %g", got)
	}
}

func TestEDFDeltas(t *testing.T) {
	p := EDF{Deadline: map[FlowID]float64{0: 2, 1: 20}}
	if got := p.Delta(0, 1); got != -18 {
		t.Errorf("EDF Delta(0,1) = %g, want d*_0 − d*_1 = −18", got)
	}
	if got := p.Delta(1, 0); got != 18 {
		t.Errorf("EDF Delta(1,0) = %g, want 18", got)
	}
}

func TestDeltaClamped(t *testing.T) {
	tests := []struct{ delta, y, want float64 }{
		{5, 3, 3},
		{5, 7, 5},
		{math.Inf(1), 7, 7},
		{math.Inf(-1), 7, math.Inf(-1)},
		{-4, 7, -4},
	}
	for _, tt := range tests {
		if got := DeltaClamped(tt.delta, tt.y); got != tt.want {
			t.Errorf("DeltaClamped(%g,%g) = %g, want %g", tt.delta, tt.y, got, tt.want)
		}
	}
}
