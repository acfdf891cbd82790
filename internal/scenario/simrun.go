package scenario

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/experiments"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
	"deltasched/internal/randx"
	"deltasched/internal/sim"
	"deltasched/internal/traffic"
)

// simSpec describes one tandem simulation run by the sim backend: the
// paper's Fig. 1 topology with N0 through flows crossing H nodes and Nc
// cross flows joining at each node.
type simSpec struct {
	Src      envelope.MMOO
	H        int
	C        float64
	N0, Nc   int
	CountAgg bool // drive aggregates by the O(1) ON-count chain instead of per-flow draws
	MkSched  func(node int) sim.Scheduler
	Slots    int // total slot budget; replication splits it into Slots/Reps per run
	Seed     int64
	Every    int // probe sampling stride; 0 disables the probe
	Progress func(done, total int)

	// Reps splits the slot budget into that many independent replications
	// with disjoint SplitMix64-derived seeds, run concurrently and merged.
	// Reps <= 1 is the legacy single run: one Tandem.Run over the full
	// budget, seeded with Seed itself — bit-identical to pre-replication
	// outputs. SimWorkers bounds the concurrent replications (0 = all
	// cores).
	Reps       int
	SimWorkers int

	// Measure selects the measurement backend: BackendExact (default)
	// retains the full per-slot sample set, byte-identical to the
	// pre-seam pipeline; BackendSketch streams slots through a
	// fixed-memory quantile sketch, so summary memory is O(1) in Slots.
	Measure measure.Backend
}

// runTandem executes the simulation and returns the through-flow delay
// summary on the spec's measurement backend, the run counters, and the
// per-node probe (nil when Every is 0). The RNG is seeded
// deterministically so a (spec, seed, backend) triple is reproducible.
// The exact backend records through the retained-curve DelayRecorder
// (byte-identical to the pre-seam pipeline); the sketch backend streams
// each slot straight into a fixed-memory summary via Tandem.Sink.
func runTandem(ctx context.Context, spec simSpec) (measure.Summary, sim.Stats, *obs.SimProbe, error) {
	if spec.Slots <= 0 {
		return nil, sim.Stats{}, nil, fmt.Errorf("%w: slots must be positive, got %d", core.ErrBadConfig, spec.Slots)
	}
	// The concrete randx generator replays rand.New(rand.NewSource(seed))'s
	// stream bit for bit while letting the traffic layer devirtualize its
	// per-slot draws (see randx.Rand); seeded runs keep their goldens.
	rng := randx.NewRand(spec.Seed)
	// The two constructions sample the same aggregate law from different
	// RNG streams: per-source consumes n draws per slot, the count chain
	// two binomial draws (see internal/traffic).
	mkAgg := func(n int) (traffic.Source, error) {
		if spec.CountAgg {
			return traffic.NewMMOOCountAggregate(spec.Src, n, rng)
		}
		return traffic.NewMMOOAggregate(spec.Src, n, rng)
	}
	through, err := mkAgg(spec.N0)
	if err != nil {
		return nil, sim.Stats{}, nil, err
	}
	cross := make([]traffic.Source, spec.H)
	for i := range cross {
		cs, err := mkAgg(spec.Nc)
		if err != nil {
			return nil, sim.Stats{}, nil, err
		}
		cross[i] = cs
	}
	tan := &sim.Tandem{
		C:         spec.C,
		Through:   through,
		Cross:     cross,
		MakeSched: spec.MkSched,
		Ctx:       ctx,
		Progress:  spec.Progress,
	}
	var probe *obs.SimProbe
	if spec.Every > 0 {
		probe = &obs.SimProbe{Every: spec.Every}
		tan.Probe = probe
	}
	var stream *measure.StreamRecorder
	if spec.Measure != measure.BackendExact {
		stream = measure.NewStreamRecorder(spec.Measure.New())
		tan.Sink = stream
	}
	_, sp := obs.StartSpan(ctx, "simulate")
	if sp != nil {
		sp.SetAttr("slots", spec.Slots)
		sp.SetAttr("seed", spec.Seed)
		sp.SetAttr("measure", spec.Measure.String())
	}
	rec, stats, err := tan.Run(spec.Slots)
	sp.End()
	if err != nil {
		return nil, sim.Stats{}, nil, err
	}
	var sum measure.Summary
	if stream != nil {
		sum = stream.Finish()
	} else {
		d := rec.Distribution()
		sum = &d
	}
	si := simIntrospect()
	si.Slots.Add(int64(spec.Slots))
	si.Replications.Inc()
	return sum, stats, probe, nil
}

// SchedulerFor maps a scheduler name to a simulator scheduler factory and
// the Δ_{0,c} constant that summarizes it for the analysis. GPS and DRR
// are not Δ-schedulers; they report delta = NaN and the analytic backend
// falls back to the BMUX bound (valid for any work-conserving
// locally-FIFO discipline). Parameters the named discipline cannot run
// on — a NaN or infinite EDF deadline, non-positive or infinite weights —
// fail with core.ErrBadConfig, so the factory never sees them. EDF
// deadlines may have either sign.
func SchedulerFor(name string, d0, dc, w0, wc float64) (func(int) sim.Scheduler, float64, error) {
	switch name {
	case "fifo":
		return func(int) sim.Scheduler { return sim.NewFIFO() }, 0, nil
	case "bmux":
		return func(int) sim.Scheduler { return sim.NewBMUX(sim.ThroughFlow) }, math.Inf(1), nil
	case "sp":
		return func(int) sim.Scheduler {
			return sim.NewSP(map[core.FlowID]int{sim.ThroughFlow: 2, sim.CrossFlow: 1})
		}, math.Inf(-1), nil
	case "edf":
		delta := d0 - dc
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return nil, 0, fmt.Errorf("%w: edf deadlines d0=%g, dc=%g leave Δ = d0 − dc non-finite",
				core.ErrBadConfig, d0, dc)
		}
		return func(int) sim.Scheduler {
			return sim.NewEDF(map[core.FlowID]float64{sim.ThroughFlow: d0, sim.CrossFlow: dc})
		}, delta, nil
	case "gps":
		if err := validateWeights(w0, wc); err != nil {
			return nil, 0, err
		}
		return func(int) sim.Scheduler {
			g, err := sim.NewGPS(map[core.FlowID]float64{sim.ThroughFlow: w0, sim.CrossFlow: wc})
			if err != nil {
				panic(err) // weights validated above
			}
			return g
		}, math.NaN(), nil
	case "drr":
		if err := validateWeights(w0, wc); err != nil {
			return nil, 0, err
		}
		return func(int) sim.Scheduler {
			d, err := sim.NewDRR(map[core.FlowID]float64{sim.ThroughFlow: w0, sim.CrossFlow: wc})
			if err != nil {
				panic(err) // weights validated above
			}
			return d
		}, math.NaN(), nil
	default:
		return nil, 0, fmt.Errorf("%w: unknown scheduler %q", core.ErrBadConfig, name)
	}
}

// validateWeights checks the gps/drr weights (-gps-w0, -gps-wc).
func validateWeights(w0, wc float64) error {
	if !(w0 > 0) || !(wc > 0) || math.IsInf(w0, 0) || math.IsInf(wc, 0) {
		return fmt.Errorf("%w: gps/drr weights must be positive and finite (w0=%g, wc=%g)",
			core.ErrBadConfig, w0, wc)
	}
	return nil
}

// repOutcome is the result of a (possibly replicated) tandem simulation:
// the pooled delay summary for point estimates, the per-replication
// summaries for confidence intervals, the aggregate counters, and the
// probe of replication 0 (probes observe a single sample path). The
// summaries share one backend: exact Distributions or fixed-memory
// Sketches, per simSpec.Measure.
type repOutcome struct {
	Dist        measure.Summary   // pooled over all replications
	PerRep      []measure.Summary // one per replication, in index order
	Stats       sim.Stats         // volumes summed; MaxBacklog is the max over replications
	Probe       *obs.SimProbe
	Reps        int
	SlotsPerRep int
}

// runReplicated fans a simulation point out over Reps independent
// replications: the slot budget splits into Slots/Reps per replication,
// replication i runs with the i-th SplitMix64-derived seed, and the
// replications execute concurrently on a bounded worker pool
// (experiments.ParMapCtx: cancellation, panic isolation). Results merge
// in replication index order, so for a fixed (seed, reps) the outcome is
// bit-identical regardless of worker count or completion order. Reps <= 1
// degenerates to the legacy single run seeded with the root seed.
func runReplicated(ctx context.Context, spec simSpec) (repOutcome, error) {
	reps := spec.Reps
	if reps <= 1 {
		sum, stats, probe, err := runTandem(ctx, spec)
		if err != nil {
			return repOutcome{}, err
		}
		simIntrospect().CensoredKbit.Add(int64(sum.CensoredBits()))
		return repOutcome{
			Dist:        sum,
			PerRep:      []measure.Summary{sum},
			Stats:       stats,
			Probe:       probe,
			Reps:        1,
			SlotsPerRep: spec.Slots,
		}, nil
	}
	perRepSlots := spec.Slots / reps
	if perRepSlots < 1 {
		return repOutcome{}, fmt.Errorf("%w: %d slots cannot split into %d replications",
			core.ErrBadConfig, spec.Slots, reps)
	}

	// Per-replication slot progress folds into one (done, total) stream;
	// the lock serializes the calls and keeps the aggregate monotonic.
	var onSlots func(rep, done int)
	if spec.Progress != nil {
		var mu sync.Mutex
		done := make([]int, reps)
		total := reps * perRepSlots
		report := spec.Progress
		onSlots = func(rep, d int) {
			mu.Lock()
			defer mu.Unlock()
			done[rep] = d
			sum := 0
			for _, v := range done {
				sum += v
			}
			report(sum, total)
		}
	}

	seeds := randx.NewSeedStream(spec.Seed)
	idx := make([]int, reps)
	for i := range idx {
		idx[i] = i
	}
	type repResult struct {
		sum   measure.Summary
		stats sim.Stats
		probe *obs.SimProbe
	}
	results, err := experiments.ParMapCtx(ctx, spec.SimWorkers, idx,
		func(rctx context.Context, rep int) (repResult, error) {
			rspec := spec
			rspec.Slots = perRepSlots
			rspec.Seed = seeds.Seed(rep)
			rspec.Progress = nil
			if onSlots != nil {
				r := rep
				rspec.Progress = func(d, _ int) { onSlots(r, d) }
			}
			if rep != 0 {
				rspec.Every = 0 // the probe follows one sample path: replication 0
			}
			sum, stats, probe, err := runTandem(rctx, rspec)
			if err != nil {
				return repResult{}, fmt.Errorf("replication %d: %w", rep, err)
			}
			return repResult{sum: sum, stats: stats, probe: probe}, nil
		}, nil)
	if err != nil {
		return repOutcome{}, err
	}

	out := repOutcome{
		PerRep:      make([]measure.Summary, reps),
		Probe:       results[0].probe,
		Reps:        reps,
		SlotsPerRep: perRepSlots,
	}
	for i, r := range results {
		out.PerRep[i] = r.sum
		out.Stats.ThroughArrived += r.stats.ThroughArrived
		out.Stats.ThroughLeft += r.stats.ThroughLeft
		out.Stats.CrossArrived += r.stats.CrossArrived
		if r.stats.MaxBacklog > out.Stats.MaxBacklog {
			out.Stats.MaxBacklog = r.stats.MaxBacklog
		}
	}
	// MergeSummaries folds in replication index order over a clone, so
	// pooled results stay worker-count invariant.
	_, msp := obs.StartSpan(ctx, "merge")
	pooled, err := measure.MergeSummaries(out.PerRep)
	msp.End()
	if err != nil {
		return repOutcome{}, err
	}
	out.Dist = pooled
	si := simIntrospect()
	si.MergeOps.Add(int64(reps))
	si.CensoredKbit.Add(int64(out.Dist.CensoredBits()))
	return out, nil
}

// simMetrics condenses a simulated delay summary into the named
// empirical metrics of a Result: the delay quantile at 1−simeps, the
// observed maximum, the censored (horizon-truncated) mass, and — when a
// finite analytic bound is available — the empirical violation fraction
// of that bound. With two or more replications the per-replication
// estimates additionally yield Student-t 95% confidence half-widths.
// On the sketch backend the summary's guaranteed quantile rank-error
// bound is reported alongside, and the pooled summary's resident size
// lands in both the metrics and the sim_summary_bytes gauge so the
// exact-vs-sketch memory gap is observable in /metrics and RunReports.
func simMetrics(out repOutcome, simeps, bound float64) map[string]float64 {
	dist := out.Dist
	m := map[string]float64{
		"sim_max_backlog_kbit":     out.Stats.MaxBacklog,
		"sim_through_arrived_kbit": out.Stats.ThroughArrived,
		"sim_censored_fraction":    dist.CensoredFraction(),
		"sim_summary_bytes":        float64(dist.MemoryBytes()),
	}
	obs.Default.Gauge("sim_summary_bytes",
		"resident size of the pooled delay summary (exact grows with the horizon, sketch is O(1))",
		obs.Labels{"backend": dist.BackendName()}).Set(float64(dist.MemoryBytes()))
	if re := dist.RankError(); re > 0 {
		m["sim_quantile_rank_error"] = re
	}
	if cf := m["sim_censored_fraction"]; cf > simeps {
		fmt.Fprintf(os.Stderr,
			"warning: %.3g of the observed volume is right-censored by the horizon (> simeps %.3g); the %g-quantile is biased low — raise -slots or lower -reps\n",
			cf, simeps, 1-simeps)
	}
	if q, err := dist.Quantile(1 - simeps); err == nil {
		m["sim_delay_quantile_slots"] = float64(q)
	}
	if mx, err := dist.Max(); err == nil {
		m["sim_delay_max_slots"] = float64(mx)
	}
	finiteBound := !math.IsNaN(bound) && !math.IsInf(bound, 0)
	if finiteBound {
		m["sim_violation_fraction"] = dist.ViolationFraction(bound)
	}
	if out.Reps >= 2 {
		m["sim_reps"] = float64(out.Reps)
		if mean, half, err := measure.QuantileCI(out.PerRep, 1-simeps); err == nil {
			m["sim_delay_quantile_mean_slots"] = mean
			m["sim_delay_quantile_ci_slots"] = half
			// The CI half-width captures replication noise only; on the
			// sketch backend each per-replication quantile additionally
			// carries this deterministic rank-error bound.
			if re := measure.MaxRankError(out.PerRep); re > 0 {
				m["sim_quantile_ci_rank_error"] = re
			}
		}
		if finiteBound {
			if mean, half, err := measure.ViolationFractionCI(out.PerRep, bound); err == nil {
				m["sim_violation_fraction_mean"] = mean
				m["sim_violation_fraction_ci"] = half
			}
		}
	}
	return m
}
