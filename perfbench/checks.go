package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// tandemRef is a tandem workload's output at refSeed, recorded when the
// benchmark was introduced. The simulator is bit-reproducible per seed,
// so any drift here is a behaviour change, not noise.
type tandemRef struct {
	quantiles      [4]int
	max            int
	throughArrived float64
}

// sketchRankErrorCap is the rank-error guarantee the measure package's
// adversarial sketch tests hold the streaming sketch to.
const sketchRankErrorCap = 0.05

// selfCheck counts one of the traced run's self-checks as an operation.
// A divergence fails it, so per-layer figures that no longer describe
// the program cannot be recorded as correct.
func (r *result) selfCheck(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: self-check failed: "+format+"\n", args...)
	}
}

// checkPass verifies one completed pass's outputs and returns the
// problems found (none when the outputs are correct).
func checkPass(p *pass) []string {
	switch p.w.tool {
	case "paperfigs":
		return checkFigures(p)
	case "netsim":
		return checkTandem(p)
	}
	return []string{"unknown tool " + p.w.tool}
}

// checkFigures compares every rendered CSV with its committed golden.
func checkFigures(p *pass) []string {
	var bad []string
	for _, f := range paperFigures {
		want, err := os.ReadFile(filepath.Join(goldenDir, "fig"+f.id+".csv"))
		if err != nil {
			bad = append(bad, fmt.Sprintf("fig%s: reading golden: %v", f.id, err))
			continue
		}
		got, ok := p.figCSV[f.id]
		if !ok {
			bad = append(bad, fmt.Sprintf("fig%s: no CSV written", f.id))
			continue
		}
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("fig%s: CSV differs from %s", f.id, goldenDir))
		}
	}
	return bad
}

// checkTandem applies the simulator's standing checks: the empirical
// violation fraction of the bound stays within ε, the through volume is
// conserved (nothing leaves that did not arrive), the sketch stays
// within its rank-error guarantee, and the pinned seed reproduces the
// recorded outputs.
func checkTandem(p *pass) []string {
	t := p.tandem
	if t == nil {
		return []string{"no tandem output"}
	}
	var bad []string
	if !(t.violation <= t.eps) {
		bad = append(bad, fmt.Sprintf("violation fraction %g exceeds eps %g", t.violation, t.eps))
	}
	st := t.det.Stats
	if !(st.ThroughLeft <= st.ThroughArrived*(1+1e-12)) {
		bad = append(bad, fmt.Sprintf("through volume not conserved: left %g > arrived %g", st.ThroughLeft, st.ThroughArrived))
	}
	if !(t.rankError >= 0 && t.rankError <= sketchRankErrorCap) {
		bad = append(bad, fmt.Sprintf("rank error %g outside [0, %g]", t.rankError, sketchRankErrorCap))
	}
	if t.det.Reps != p.w.tandem.reps {
		bad = append(bad, fmt.Sprintf("%d replications, want %d", t.det.Reps, p.w.tandem.reps))
	}
	if p.seed == refSeed && p.w.ref != nil {
		ref := p.w.ref
		if t.quantiles != ref.quantiles || t.max != ref.max || st.ThroughArrived != ref.throughArrived {
			bad = append(bad, fmt.Sprintf("seed %d: quantiles %v max %d arrived %v, recorded %v max %d arrived %v",
				refSeed, t.quantiles, t.max, st.ThroughArrived, ref.quantiles, ref.max, ref.throughArrived))
		}
	}
	return bad
}
