// Command paperfigs regenerates the evaluation figures of the paper
// (Figs. 2–4 of "Does Link Scheduling Matter on Long Paths?", ICDCS 2010)
// from the analytical delay bounds implemented in this repository. Each
// figure is printed as an aligned table and an ASCII chart, and optionally
// written as CSV for external plotting. With -backend=both, every point
// is additionally replayed in the discrete-time simulator and the
// empirical delay quantile is reported next to the bound; with
// -backend=sim, the figures show that quantile in place of the bound.
//
// A run is interruptible: SIGINT/SIGTERM cancels the sweeps, flushes the
// checkpoint (when -checkpoint is set) and a partial run report, and
// exits 130. Re-running with -resume picks up where the interrupted run
// stopped and produces byte-identical CSVs.
//
// Sweeps shard across processes (or machines on a shared filesystem):
// -shard i/N evaluates one fixed partition and writes an
// integrity-checked fragment to -shard-dir, -merge validates and
// reassembles the fragments into figures byte-identical to a
// single-process run, and -claim N lease-claims shards until the sweep
// is done — crashed workers' shards are reclaimed when their lease
// expires. -point-timeout and -point-retries bound and retry individual
// point evaluations (transient failures only: panics and timeouts).
//
// Telemetry: -report embeds the metric snapshot and the aggregated span
// tree, -tracefile writes the spans as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto), and -metrics-addr serves live
// Prometheus text on /metrics while the run lasts. None of them change
// the figures.
//
// Usage:
//
//	paperfigs [-fig 1|2|3|all] [-quick] [-outdir DIR] [-backend analytic|sim|both] [-checkpoint FILE [-resume]] [-progress] [-report FILE]
//	paperfigs -quick -shard 0/3 -shard-dir frags   # one shard of three (run 1/3 and 2/3 elsewhere)
//	paperfigs -quick -merge -shard-dir frags -outdir results
//	paperfigs -quick -claim 3 -shard-dir frags -outdir results   # work-claiming worker
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/obs"
	"deltasched/internal/plot"
	"deltasched/internal/runner"
	"deltasched/internal/scenario"
)

func main() {
	runner.Exit("paperfigs", run(os.Args[1:]))
}

func run(args []string) error {
	app := runner.New("paperfigs", scenario.Analytic)
	var (
		fig    = app.FS.String("fig", "all", "figure to regenerate: 1, 2, 3 or all")
		quick  = app.FS.Bool("quick", false, "coarser sweeps (fast preview)")
		outdir = app.FS.String("outdir", "", "directory for CSV output (optional)")
		slots  = app.FS.Int("slots", 50000, "sim backend: simulated slots per point")
		seed   = app.FS.Int64("seed", 1, "sim backend: RNG seed")
		simeps = app.FS.Float64("simeps", 0.01, "sim backend: tail mass of the reported empirical quantile")
	)
	return app.Main(args, func(a *runner.App) error {
		type figure struct {
			id     string
			title  string
			xlabel string
			logY   bool
		}
		figures := []figure{
			{
				id:     "1",
				title:  "Fig. 2 (Example 1): e2e delay bound vs total utilization U (U0=15%, eps=1e-9)",
				xlabel: "total utilization U [%]",
				logY:   true,
			},
			{
				id:     "2",
				title:  "Fig. 3 (Example 2): e2e delay bound vs traffic mix Uc/U (U=50%, eps=1e-9)",
				xlabel: "cross-traffic share Uc/U",
			},
			{
				id:     "3",
				title:  "Fig. 4 (Example 3): e2e delay bound vs path length H (N0=Nc, eps=1e-9)",
				xlabel: "path length H",
				logY:   true,
			},
		}
		known := *fig == "all"
		for _, f := range figures {
			known = known || *fig == f.id
		}
		if !known {
			return fmt.Errorf("%w: -fig wants 1, 2, 3 or all, got %q", core.ErrBadConfig, *fig)
		}
		if a.Backend.Has(scenario.Sim) {
			a.Sess.Report.Seed = *seed
		}
		// Without the analytic backend there is no bound to draw: the
		// figure shows each point's simulated delay quantile instead, on
		// a linear axis, since that quantile can be 0.
		simOnly := a.Backend == scenario.Sim
		ylabel := "delay bound [ms]"
		if simOnly {
			ylabel = fmt.Sprintf("simulated delay %g-quantile [ms]", 1-*simeps)
		}

		for _, f := range figures {
			if *fig != "all" && *fig != f.id {
				continue
			}
			sc, err := scenario.Get("fig" + f.id)
			if err != nil {
				return err
			}
			cfg := scenario.Config{"quick": *quick, "slots": *slots, "seed": *seed, "simeps": *simeps}
			start := time.Now()
			pts, rs, err := a.Run(sc, cfg, runner.RunOpt{
				Label: "fig " + f.id,
				Stage: "fig-" + f.id,
				Sweep: "fig" + f.id,
			})
			if err != nil {
				return fmt.Errorf("figure %s: %w", f.id, err)
			}
			if a.FragmentOnly() {
				// -shard i/N: this process only wrote its fragment; tables
				// and CSVs come from the -merge (or claim) run that sees
				// the whole sweep.
				fmt.Printf("fig %s: shard fragment written in %v (run -merge to render)\n", f.id, time.Since(start).Round(time.Millisecond))
				continue
			}
			shown := rs
			if simOnly {
				shown = simQuantiles(rs)
			}
			series := scenario.Collect(pts, shown)
			a.Sess.Report.SetExtra("fig"+f.id, series)
			obs.Default.Gauge("fig"+f.id+"_series", "curves drawn in fig"+f.id, nil).Set(float64(len(series)))
			fmt.Printf("\n%s   (computed in %v)\n\n", f.title, time.Since(start).Round(time.Millisecond))
			if err := plot.Table(os.Stdout, f.xlabel, series...); err != nil {
				return err
			}
			fmt.Println()
			if err := plot.ASCII(os.Stdout, plot.Options{
				XLabel: f.xlabel,
				YLabel: ylabel,
				LogY:   f.logY && !simOnly,
				Width:  84,
				Height: 24,
			}, series...); err != nil {
				return err
			}
			if a.Backend.Has(scenario.Sim) {
				printSimCheck(pts, rs, *simeps)
			}
			if *outdir != "" {
				if err := os.MkdirAll(*outdir, 0o755); err != nil {
					return err
				}
				path := filepath.Join(*outdir, "fig"+f.id+".csv")
				out, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := plot.CSV(out, series...); err != nil {
					out.Close()
					return err
				}
				if err := out.Close(); err != nil {
					return err
				}
				fmt.Printf("\nwrote %s\n", path)
			}
		}
		return nil
	})
}

// printSimCheck renders the combined analytic/empirical view of a figure
// run under the sim backend: for every point, the bound next to the
// simulator's delay quantile at 1−simeps.
func printSimCheck(pts []scenario.Point, rs []scenario.Result, simeps float64) {
	fmt.Printf("\nsimulator cross-check (delay quantile at 1-%g vs analytic bound):\n", simeps)
	fmt.Printf("%-28s %10s %14s %16s\n", "series", "x", "bound [ms]", "sim quantile [ms]")
	for i, pt := range pts {
		fmt.Printf("%-28s %10.4g %14.4g %16.4g", pt.Series, pt.X, rs[i].Analytic, simQuantile(rs[i]))
		// Replicated runs carry a Student-t 95% half-width next to the
		// pooled quantile.
		if half, ok := rs[i].Sim["sim_delay_quantile_ci_slots"]; ok {
			fmt.Printf("  ± %-8.4g", half)
		}
		fmt.Println()
	}
}

// simQuantiles replaces each point's value by its simulated quantile.
func simQuantiles(rs []scenario.Result) []scenario.Result {
	out := make([]scenario.Result, len(rs))
	for i, r := range rs {
		out[i].Analytic = simQuantile(r)
	}
	return out
}

// simQuantile is a point's simulated delay quantile at 1−simeps, NaN
// when the simulator did not report one.
func simQuantile(r scenario.Result) float64 {
	if v, ok := r.Sim["sim_delay_quantile_slots"]; ok {
		return v
	}
	return math.NaN()
}
