// Command perfbench is the repository's end-to-end benchmark. It drives
// the shipped CLI paths in-process — runner.App with the paperfigs and
// netsim flag strings, through scenario.Evaluate into the analytic core
// or the tandem simulator — times them, checks their outputs, and prints
// one JSON result object as the last line of standard output.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload figs-quick --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics (setup_s, wall_s, alloc_mb)
// with every telemetry hook off, exactly as the CLIs run without
// -report. --trace 1 runs the traced layer breakdown instead and reports
// the per-layer metrics; its Chrome trace lands in .bench_build/trace.
// See README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output format: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figs-quick, tandem-fifo-h10 or tandem-edf-h30")
		seed    = flag.Int64("seed", 1, "input seed (the tandem workloads' simulation seed; figs-quick is deterministic)")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced per-layer breakdown")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(goldenDir, "fig1.csv")); err != nil {
		// The benchmark runs from the root of a source checkout; without
		// the repository around it there is nothing to measure.
		fmt.Fprintf(os.Stderr, "perfbench: not at a repository root: %v\n", err)
		os.Exit(1)
	}

	window := time.Duration(*seconds) * time.Second
	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(w, *seed, window)
	} else {
		res, err = traced(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// printResult writes the human-readable metric table, then the JSON
// result line last.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v; reported as 0\n", k, m.Value)
			m.Value = 0
			res.Metrics[k] = m
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %-14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	frac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%-36s %-14.6g %s   (%d of %d operations; outputs correct: %v)\n",
		"failed_frac", frac, "1", res.Failed, res.Attempted, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-quantile of xs by the nearest-rank rule, so
// that len(xs)·(1−p) samples lie beyond it (rounded down).
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
