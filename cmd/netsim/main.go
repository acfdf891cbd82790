// Command netsim simulates the paper's tandem network (Fig. 1) at the
// fluid slot level and compares the measured end-to-end delays of the
// through traffic against the analytical bound: the empirical violation
// fraction of the bound must stay below the configured probability.
// -backend selects the engines: both (default) validates the bound
// against the simulation, sim runs the simulator alone, analytic
// computes only the bound. -measure selects the delay summary backend:
// exact (default, full per-slot samples, byte-identical to historical
// outputs) or sketch (fixed-memory mergeable quantile sketch whose
// guaranteed rank-error bound is printed alongside the quantiles —
// use it for horizons where retaining every sample will not fit).
//
// Telemetry: -report embeds the metric snapshot (sim_slots_total,
// optimizer counters) and the span tree, -tracefile writes a Chrome
// trace_event timeline, and -metrics-addr serves live Prometheus text
// on /metrics while the run lasts. The shared point resilience knobs
// (-point-timeout, -point-retries) bound and retry the evaluation; the
// sharded-sweep flags (-shard/-claim/-merge) apply only to analytic
// sweeps, not this single-shot simulation.
//
// Example:
//
//	netsim -H 3 -C 20 -n0 30 -nc 60 -sched fifo -slots 200000 -eps 1e-2
package main

import (
	"fmt"
	"os"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
	"deltasched/internal/runner"
	"deltasched/internal/scenario"
)

func main() {
	runner.Exit("netsim", run(os.Args[1:]))
}

func run(args []string) error {
	app := runner.New("netsim", scenario.Both)
	app.Flags("tandem")
	ccdf := app.FS.Bool("ccdf", false, "print the empirical delay CCDF")
	return app.Main(args, func(a *runner.App) error {
		cfg := a.Config()
		a.Sess.Report.Seed = cfg.Int64("seed")
		if every := cfg.Int("probe-every"); every < 0 {
			return fmt.Errorf("%w: -probe-every wants a stride >= 0, got %d", core.ErrBadConfig, every)
		}
		// The per-node probe feeds only the report.
		if !a.ReportEnabled() {
			cfg["probe-every"] = 0
		}

		sc, err := scenario.Get("tandem")
		if err != nil {
			return err
		}
		_, rs, err := a.Run(sc, cfg, runner.RunOpt{Label: "netsim: slots", Stage: "simulate"})
		if err != nil {
			return err
		}
		det := rs[0].Detail.(scenario.TandemDetail)
		stopAnalyze := a.Sess.Stage("analyze")
		defer stopAnalyze()

		c, n0, nc, eps := cfg.Float("C"), cfg.Int("n0"), cfg.Int("nc"), cfg.Float("eps")
		mean := envelope.PaperSource().MeanRate()
		fmt.Printf("scenario         : H=%d C=%g, N0=%d + Nc=%d MMOO flows, scheduler %s\n", cfg.Int("H"), c, n0, nc, cfg.Str("sched"))
		fmt.Printf("utilization      : U=%.1f%% (U0=%.1f%%, Uc=%.1f%%)\n",
			100*float64(n0+nc)*mean/c, 100*float64(n0)*mean/c, 100*float64(nc)*mean/c)

		if a.Backend.Has(scenario.Sim) {
			dist := det.Dist
			if det.Reps > 1 {
				fmt.Printf("simulated        : %d replications x %d slots (disjoint seed streams), %.4g kbit through traffic, max node backlog %.4g kbit\n",
					det.Reps, det.SlotsPerRep, det.Stats.ThroughArrived, det.Stats.MaxBacklog)
			} else {
				fmt.Printf("simulated        : %d slots, %.4g kbit through traffic, max node backlog %.4g kbit\n",
					cfg.Int("slots"), det.Stats.ThroughArrived, det.Stats.MaxBacklog)
			}
			if cf := dist.CensoredFraction(); cf > 0 {
				fmt.Printf("censored mass    : %.3g of observed volume ran past the horizon\n", cf)
			}
			if q, err := dist.Quantile(0.5); err == nil {
				fmt.Printf("delay median     : %d slots\n", q)
			}
			for _, p := range []float64{0.99, 0.999, 0.9999} {
				if q, err := dist.Quantile(p); err == nil {
					fmt.Printf("delay p%-8.4g : %d slots\n", 100*p, q)
				}
			}
			if mx, err := dist.Max(); err == nil {
				fmt.Printf("delay max        : %d slots\n", mx)
			}
			if re := dist.RankError(); re > 0 {
				fmt.Printf("quantile error   : rank within +%.3g of requested (%s backend, %d B resident)\n",
					re, dist.BackendName(), dist.MemoryBytes())
				obs.Default.Gauge("quantile_rank_error", "rank-error bound of the reported delay quantiles", nil).Set(re)
			}
			if det.Reps > 1 {
				if mean, half, err := measure.QuantileCI(det.PerRep, 1-eps); err == nil {
					fmt.Printf("delay p%-8.4g : %.4g ± %.4g slots (95%% CI over %d replications)\n",
						100*(1-eps), mean, half, det.Reps)
					a.Sess.Report.SetBound("delay_quantile_ci_slots", half)
				}
			}
		}
		if a.Backend.Has(scenario.Analytic) {
			fmt.Printf("%s : %.4g slots at eps=%.3g\n", det.BoundLabel, det.Res.D, eps)
			a.Sess.Report.SetBound("delay_bound_slots", det.Res.D)
		}
		if a.Backend == scenario.Both {
			frac := det.Dist.ViolationFraction(det.Res.D)
			fmt.Printf("empirical P(W>d) : %.3g  →  bound %s\n", frac, verdict(frac <= eps))
			a.Sess.Report.SetBound("empirical_violation_fraction", frac)
			if det.Reps > 1 {
				if mean, half, err := measure.ViolationFractionCI(det.PerRep, det.Res.D); err == nil {
					fmt.Printf("P(W>d) 95%% CI    : %.3g ± %.3g over %d replications\n", mean, half, det.Reps)
					a.Sess.Report.SetBound("empirical_violation_fraction_ci", half)
				}
			}
		}

		if a.Backend.Has(scenario.Sim) {
			a.Sess.Report.Nodes = det.Probe.Summaries()
			obs.Default.Gauge("through_arrived_kbit", "through traffic that entered the path [kbit]", nil).Set(det.Stats.ThroughArrived)
			obs.Default.Gauge("cross_arrived_kbit", "cross traffic that entered the path [kbit]", nil).Set(det.Stats.CrossArrived)
			obs.Default.Gauge("max_node_backlog_kbit", "largest backlog of any node [kbit]", nil).Set(det.Stats.MaxBacklog)
			for _, p := range []float64{0.5, 0.99, 0.999, 0.9999} {
				if q, err := det.Dist.Quantile(p); err == nil {
					a.Sess.Report.SetBound(fmt.Sprintf("delay_p%g_slots", 100*p), float64(q))
				}
			}
			if *ccdf {
				ds, ps := det.Dist.CCDF()
				fmt.Println("\nempirical CCDF (delay [slots], P(W > delay)):")
				for i := range ds {
					if ps[i] <= 0 {
						fmt.Printf("  %6g  0 (no observations beyond)\n", ds[i])
						break
					}
					fmt.Printf("  %6g  %.3g\n", ds[i], ps[i])
				}
			}
		}
		return nil
	})
}

func verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}
