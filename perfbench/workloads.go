package main

import (
	"path/filepath"
	"strconv"
)

// workload is one benchmarked CLI invocation: which command's flag set
// and body the in-process run mirrors, and its flag strings.
type workload struct {
	name string
	tool string // "paperfigs" or "netsim"
	// tandem is the netsim configuration (nil for the figure sweeps).
	tandem *tandemShape
	// ref holds the outputs recorded at refSeed (tandem only).
	ref *tandemRef
}

// tandemShape is a tandem workload's netsim configuration. Both tandem
// workloads carry the same load: 30 through and 80 cross MMOO flows on
// 20 kbit/slot links (U ≈ 82%), netsim's default 200000 slots and
// ε = 1e-2.
type tandemShape struct {
	h            int
	sched        string // netsim -sched; also the point's analysis class
	edfD0, edfDc float64
	agg          string // per-source or count
	measure      string // exact or sketch
	reps         int
	simWorkers   int
}

const (
	tandemC     = 20
	tandemN0    = 30
	tandemNc    = 80
	tandemSlots = 200000
	tandemEps   = 1e-2
)

// refSeed is the pinned seed whose tandem outputs are compared against
// the values recorded in reference.go.
const refSeed = 1

var workloads = map[string]workload{
	"figs-quick": {name: "figs-quick", tool: "paperfigs"},
	"tandem-fifo-h10": {
		name: "tandem-fifo-h10", tool: "netsim", ref: &refFIFOH10,
		tandem: &tandemShape{h: 10, sched: "fifo", agg: "per-source", measure: "exact", reps: 1},
	},
	"tandem-edf-h30": {
		name: "tandem-edf-h30", tool: "netsim", ref: &refEDFH30,
		tandem: &tandemShape{h: 30, sched: "edf", edfD0: 5, edfDc: 50, agg: "count", measure: "sketch", reps: 4, simWorkers: 2},
	},
}

// args builds the CLI flags of one run; dir is the run's private scratch
// directory (checkpoint file, CSV output).
func (w workload) args(seed int64, dir string) []string {
	t := w.tandem
	if t == nil {
		return []string{"-quick",
			"-checkpoint", filepath.Join(dir, "checkpoint.json"),
			"-outdir", filepath.Join(dir, "figs")}
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	args := []string{"-backend", "both",
		"-H", strconv.Itoa(t.h), "-C", f(tandemC), "-n0", strconv.Itoa(tandemN0), "-nc", strconv.Itoa(tandemNc),
		"-sched", t.sched, "-agg", t.agg, "-measure", t.measure, "-reps", strconv.Itoa(t.reps),
		"-slots", strconv.Itoa(tandemSlots), "-eps", f(tandemEps),
		"-seed", strconv.FormatInt(seed, 10)}
	if t.sched == "edf" {
		args = append(args, "-edf-d0", f(t.edfD0), "-edf-dc", f(t.edfDc))
	}
	if t.simWorkers > 0 {
		args = append(args, "-simworkers", strconv.Itoa(t.simWorkers))
	}
	return args
}

// ops is the number of operations one run attempts: a replication for
// the tandem workloads, a sweep point for the figures (counted as the
// points enumerate).
func (w workload) ops(points int) int {
	if w.tandem != nil {
		return w.tandem.reps
	}
	return max(points, 1)
}

// goldenDir holds the committed figure CSVs the figs-quick output must
// reproduce byte for byte.
const goldenDir = "cmd/paperfigs/testdata"
