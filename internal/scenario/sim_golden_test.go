package scenario

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSimBackendGolden pins every simulated number of the fig1/fig2/fig3
// scenarios under the sim backend byte for byte: each point's full metric
// map (delay quantiles, violation fractions, volumes, max backlog,
// censored mass, CI half-widths) is formatted as exact hex floats and
// compared against committed goldens. The fixtures were recorded from the
// pre-block-loop slot engine, so they prove the block-batched loop, the
// devirtualized sources, and the FIFO ring fast path reproduce the old
// per-slot loop bit for bit end to end — including through the replicated
// merge path (fig3 runs reps=4 over 2 workers). All three run at seed 1,
// the seed the goldens were recorded at.
//
// Regenerate with UPDATE_SIM_GOLDEN=1 go test ./internal/scenario
// -run TestSimBackendGolden (only legitimate after a deliberate,
// documented change to the simulated stream).
func TestSimBackendGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick sim sweeps for three figures")
	}
	cases := []struct {
		fig string
		cfg Config
	}{
		{"fig1", Config{"quick": true, "slots": 4000, "seed": int64(1)}},
		{"fig2", Config{"quick": true, "slots": 4000, "seed": int64(1)}},
		// reps>1 pins the replicated path: SplitMix64 seed streams,
		// worker-pool fan-out, index-order merge.
		{"fig3", Config{"quick": true, "slots": 4000, "seed": int64(1), "reps": 4, "simworkers": 2}},
	}
	for _, tc := range cases {
		t.Run(tc.fig, func(t *testing.T) {
			sc, err := Get(tc.fig)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := sc.Points(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("point,metric,value\n")
			for _, pt := range pts {
				res, err := sc.Evaluate(context.Background(), tc.cfg, pt, Sim)
				if err != nil {
					t.Fatalf("point %s: %v", pt.ID, err)
				}
				keys := make([]string, 0, len(res.Sim))
				for k := range res.Sim {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, "%s,%s,%s\n", pt.ID, k, hexFloat(res.Sim[k]))
				}
			}
			got := b.String()
			path := filepath.Join("testdata", tc.fig+"_sim.csv")
			if os.Getenv("UPDATE_SIM_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_SIM_GOLDEN=1 to record): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: sim-backend metrics differ from golden %s\n%s", tc.fig, path,
					firstDiff(string(want), got))
			}
		})
	}
}

// hexFloat renders a float64 exactly (no decimal rounding), with NaN
// normalized so goldens do not depend on payload bits.
func hexFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// firstDiff reports the first differing line of two line-oriented strings.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, lw, lg)
		}
	}
	return "no line diff (length mismatch)"
}
