// Command ablate runs the design-choice ablations and scaling analyses
// recorded in DESIGN.md: the exact inner solver versus the paper's
// K-recipe, the value of optimizing the rate slack γ and the EBB decay α,
// the fitted growth exponents of network versus additive bounds, and the
// persistence of EDF's advantage on long paths.
//
// Like all commands built on internal/runner, it takes the shared
// telemetry flags: -report (metric snapshot + span tree), -tracefile
// (Chrome trace_event timeline) and -metrics-addr (live /metrics). Each
// ablation is one single-point scenario, not a sweep, so the
// sharded-sweep flags (-shard/-claim/-merge) are rejected.
//
// Usage:
//
//	ablate [-util 0.5] [-quick]
package main

import (
	"fmt"
	"os"

	"deltasched/internal/experiments"
	"deltasched/internal/plot"
	"deltasched/internal/runner"
	"deltasched/internal/scenario"
)

func main() {
	runner.Exit("ablate", run(os.Args[1:]))
}

func run(args []string) error {
	app := runner.New("ablate", scenario.Analytic)
	app.Flags("scaling", "edf-gain", "recipe", "gamma-alpha", "region")
	region := app.FS.Bool("region", false, "also compute the two-class admissible region")
	return app.Main(args, func(a *runner.App) error {
		cfg := a.Config()
		util := cfg.Float("util")
		// one evaluates the named single-point scenario and hands back its
		// Detail payload.
		one := func(name string) (any, error) {
			sc, err := scenario.Get(name)
			if err != nil {
				return nil, err
			}
			_, rs, err := a.Run(sc, cfg, runner.RunOpt{Stage: name})
			if err != nil {
				return nil, err
			}
			return rs[0].Detail, nil
		}

		fmt.Printf("== Scaling: network service curve vs additive bounds (U=%.0f%%) ==\n", util*100)
		det, err := one("scaling")
		if err != nil {
			return err
		}
		rep := det.(experiments.ScalingReport)
		a.Sess.Report.SetExtra("scaling", rep)
		fmt.Printf("%6s %16s %16s\n", "H", "network [ms]", "additive [ms]")
		for i, h := range rep.Hs {
			fmt.Printf("%6d %16.4g %16.4g\n", h, rep.Network[i], rep.Additive[i])
		}
		fmt.Printf("fitted growth exponents: network H^%.2f (paper: Θ(H log H)), additive H^%.2f (paper: O(H³ log H))\n\n",
			rep.NetworkExp, rep.AdditiveExp)

		fmt.Printf("== Does scheduling matter on long paths? (ratios to BMUX, U=%.0f%%) ==\n", util*100)
		det, err = one("edf-gain")
		if err != nil {
			return err
		}
		gain := det.(experiments.EDFGainReport)
		a.Sess.Report.SetExtra("edf_gain", gain)
		fmt.Printf("%6s %12s %12s\n", "H", "FIFO/BMUX", "EDF/BMUX")
		for i, h := range gain.Hs {
			fmt.Printf("%6d %12.3f %12.3f\n", h, gain.FIFORatio[i], gain.EDFRatio[i])
		}
		fmt.Println()

		fmt.Printf("== Ablation: paper's K-recipe (Eqs. 40–42) vs exact solver (U=%.0f%%) ==\n", util*100)
		det, err = one("recipe")
		if err != nil {
			return err
		}
		rows := det.([]experiments.AblationRow)
		a.Sess.Report.SetExtra("recipe", rows)
		fmt.Printf("%-18s %14s %14s %10s\n", "config", "exact [ms]", "recipe [ms]", "penalty")
		for _, r := range rows {
			fmt.Printf("%-18s %14.4g %14.4g %9.3f×\n", r.Label, r.Full, r.Ablated, r.Penalty())
		}
		fmt.Println()

		fmt.Println("== Ablation: fixed γ and fixed α vs optimized ==")
		fmt.Printf("%-26s %14s %14s %10s\n", "config", "optimized", "ablated", "penalty")
		det, err = one("gamma-alpha")
		if err != nil {
			return err
		}
		for _, row := range det.([]experiments.AblationRow) {
			fmt.Printf("%-26s %14.4g %14.4g %9.3f×\n", row.Label, row.Full, row.Ablated, row.Penalty())
		}

		if *region {
			fmt.Println("\n== Two-class admissible region (C=50 Mbps, d1=10 ms, d2=100 ms) ==")
			det, err = one("region")
			if err != nil {
				return err
			}
			series := det.([]plot.Series)
			a.Sess.Report.SetExtra("region", series)
			if err := plotTable(series); err != nil {
				return err
			}
		}
		return nil
	})
}

func plotTable(series []plot.Series) error {
	return plot.Table(os.Stdout, "class-1 flows", series...)
}
