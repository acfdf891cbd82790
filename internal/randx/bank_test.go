package randx_test

import (
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/randx"
	"deltasched/internal/traffic"
)

// TestAggregateBankForcedRedraw drives the per-source MMOO bank through
// its redraw tail. Draws that round to 1.0 have probability 2⁻⁵⁴ each,
// so the register is tampered instead (randx.ForceDraw): in each case the
// listed draws of one slot, counted from the slot's first, become the
// largest Int63, which Float64 redraws. The bank must then match a
// per-flow Float64 loop on an identically tampered generator, slot for
// slot, including the later slots whose draws the skips have shifted.
// The test sits in randx's directory because only randx's tests can
// reach the register.
func TestAggregateBankForcedRedraw(t *testing.T) {
	const n, slot, later = 80, 5, 200
	m := envelope.PaperSource()
	for _, tc := range []struct {
		name  string
		force []int
	}{
		// Flow 40's draw and, after that skip, the last flow's draw.
		{"mid and last flow", []int{40, n}},
		{"mid flow and last buffered draw", []int{40, n - 1}},
		{"last buffered draw only", []int{n - 1}},
		{"first flow", []int{0}},
		{"consecutive draws", []int{7, 8, 9}},
		{"next slot's first two draws", []int{n, n + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bankRNG, refRNG := randx.NewRand(11), randx.NewRand(11)
			bank, err := traffic.NewMMOOAggregate(m, n, bankRNG)
			if err != nil {
				t.Fatal(err)
			}
			// The reference: NewMMOO's stationary warm start, then the
			// per-flow loop of the generic aggregate.
			on := make([]bool, n)
			for i := range on {
				on[i] = refRNG.Float64() < m.OnProbability()
			}
			refNext := func() float64 {
				total := 0.0
				for i, o := range on {
					f := refRNG.Float64()
					if o {
						total += m.Peak
						on[i] = f < m.P22
					} else {
						on[i] = f >= m.P11
					}
				}
				return total
			}
			for s := 0; s < slot+later; s++ {
				if s == slot {
					for _, j := range tc.force {
						randx.ForceDraw(bankRNG, j, 1<<63-1)
						randx.ForceDraw(refRNG, j, 1<<63-1)
					}
				}
				if g, w := bank.Next(), refNext(); g != w {
					t.Fatalf("slot %d: bank %x, per-flow loop %x", s, g, w)
				}
			}
			if g, w := bankRNG.Uint64(), refRNG.Uint64(); g != w {
				t.Fatalf("stream position differs after the run: %d != %d", g, w)
			}
		})
	}
}
