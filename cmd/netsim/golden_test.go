package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins netsim's analytic bound byte for byte at the
// long-path point H = 10, U = 82%, for a Δ-scheduler of each kind and
// for GPS, which reports the BMUX fallback bound under its own label.
func TestGoldenOutput(t *testing.T) {
	for _, sched := range []string{"fifo", "edf", "sp", "gps"} {
		t.Run(sched, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "analytic_"+sched+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			args := []string{"-backend", "analytic", "-H", "10", "-C", "20", "-n0", "30", "-nc", "80", "-sched", sched}
			got := capture(t, &os.Stdout, func() {
				if err := run(args); err != nil {
					t.Errorf("run(%v): %v", args, err)
				}
			})
			if got != string(want) {
				t.Fatalf("stdout drifted from the golden\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
