// Command delaybound computes probabilistic end-to-end delay bounds for a
// through-traffic aggregate crossing a path of Δ-scheduled nodes, using
// the analysis of "Does Link Scheduling Matter on Long Paths?" (ICDCS
// 2010). Traffic is modeled as aggregates of Markov-modulated on-off
// flows; the tool optimizes both free parameters (rate slack γ and EBB
// decay α) and reports the optimizer's internals.
//
// Like all commands built on internal/runner, it takes the shared
// telemetry flags: -report (metric snapshot + span tree), -tracefile
// (Chrome trace_event timeline), -metrics-addr (live /metrics) and the
// point resilience knobs (-point-timeout, -point-retries). The
// sharded-sweep flags (-shard/-claim/-merge) apply only to sweep
// scenarios and are rejected for this single-point tool.
//
// Examples:
//
//	delaybound -H 5 -sched fifo -n0 100 -nc 233
//	delaybound -H 10 -sched edf -edf-d0 5 -edf-dc 50 -n0 100 -nc 100
//	delaybound -H 3 -sched bmux -n0 50 -nc 150 -eps 1e-6 -additive
package main

import (
	"fmt"
	"os"

	"deltasched/internal/runner"
	"deltasched/internal/scenario"
)

func main() {
	runner.Exit("delaybound", run(os.Args[1:]))
}

func run(args []string) error {
	app := runner.New("delaybound", scenario.Analytic)
	app.Flags("path", "heteropath")
	return app.Main(args, func(a *runner.App) error {
		cfg := a.Config()
		if cfg.Str("config") != "" {
			return runHetero(a, cfg)
		}
		sc, err := scenario.Get("path")
		if err != nil {
			return err
		}
		_, rs, err := a.Run(sc, cfg, runner.RunOpt{Stage: "optimize"})
		if err != nil {
			return err
		}
		det := rs[0].Detail.(scenario.PathDetail)
		res := det.Res
		a.Sess.Report.SetBound("delay_bound_slots", res.D)
		a.Sess.Report.SetBound("gamma", res.Gamma)
		a.Sess.Report.SetBound("sigma", res.Sigma)

		c, n0, nc := cfg.Float("C"), cfg.Float("n0"), cfg.Float("nc")
		mean := det.Src.MeanRate()
		fmt.Printf("scheduler        : %s (Delta_0c = %g)\n", cfg.Str("sched"), det.Delta)
		fmt.Printf("path             : H=%d nodes, C=%g kbit/slot\n", cfg.Int("H"), c)
		fmt.Printf("traffic          : N0=%g through + Nc=%g cross MMOO flows (mean %.4g kbit/slot each)\n",
			n0, nc, mean)
		fmt.Printf("utilization      : U0=%.1f%%  Uc=%.1f%%  U=%.1f%%\n",
			100*n0*mean/c, 100*nc*mean/c, 100*(n0+nc)*mean/c)
		fmt.Printf("violation prob   : %.3g\n", cfg.Float("eps"))
		fmt.Printf("DELAY BOUND      : %.4g slots (ms at the paper's 1 ms slots)\n", res.D)
		fmt.Printf("optimizer        : gamma=%.4g  sigma=%.4g  X=%.4g\n", res.Gamma, res.Sigma, res.X)
		fmt.Printf("theta            : %v\n", compact(res.Theta))

		if cfg.Bool("additive") {
			if det.AddErr != nil {
				fmt.Printf("additive bound   : infeasible (%v)\n", det.AddErr)
			} else {
				fmt.Printf("additive bound   : %.4g slots (node-by-node; looseness ×%.2f)\n",
					det.Additive, det.Additive/res.D)
				a.Sess.Report.SetBound("additive_bound_slots", det.Additive)
			}
		}
		return nil
	})
}

// runHetero formats the heteropath scenario: the -config code path.
func runHetero(a *runner.App, cfg scenario.Config) error {
	sc, err := scenario.Get("heteropath")
	if err != nil {
		return err
	}
	_, rs, err := a.Run(sc, cfg, runner.RunOpt{Stage: "optimize-hetero"})
	if err != nil {
		return err
	}
	det := rs[0].Detail.(scenario.HeteroDetail)
	pf, res := det.PF, det.Res
	a.Sess.Report.SetBound("delay_bound_slots", res.D)
	a.Sess.Report.SetBound("gamma", res.Gamma)
	fmt.Printf("heterogeneous path: %d nodes, eps=%.3g\n", len(pf.Nodes), pf.Eps)
	for i, n := range pf.Nodes {
		fmt.Printf("  node %d: C=%g kbit/slot, %g cross flows, %s\n", i+1, n.C, n.CrossFlows, n.Sched)
	}
	fmt.Printf("DELAY BOUND      : %.4g slots\n", res.D)
	fmt.Printf("optimizer        : gamma=%.4g  sigma=%.4g  X=%.4g  theta=%v\n",
		res.Gamma, res.Sigma, res.X, compact(res.Theta))
	return nil
}

func compact(xs []float64) string {
	if len(xs) <= 8 {
		return fmt.Sprintf("%.4g", xs)
	}
	return fmt.Sprintf("%.4g ... %.4g (H=%d values)", xs[:3], xs[len(xs)-3:], len(xs))
}
