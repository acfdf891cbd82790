package scenario

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
	"deltasched/internal/sim"
)

// TandemDetail is the Detail payload of the tandem scenario: the
// analytic optimizer result with its label (BMUX fallback for non-Δ
// disciplines), and the raw simulation artifacts for CCDF printing and
// per-node report summaries.
type TandemDetail struct {
	Res        core.Result
	BoundLabel string
	Stats      sim.Stats
	Dist       measure.Summary // pooled over replications (reps=1: the single run)
	Probe      *obs.SimProbe
	// Replication artifacts: per-replication summaries for CI printing,
	// the replication count, and the per-replication horizon. All
	// summaries share the backend selected by -measure.
	PerRep      []measure.Summary
	Reps        int
	SlotsPerRep int
}

// tandemScenario is the netsim experiment: simulate the Fig. 1 tandem
// under a configurable scheduler and, under -backend=both, check the
// empirical delay tail against the analytic bound for the same point.
type tandemScenario struct{}

func (tandemScenario) Info() Info {
	return Info{
		Name: "tandem",
		Desc: "discrete-time tandem simulation vs the analytic bound (the netsim experiment)",
		Params: []Param{
			{Name: "H", Default: 3, Help: "path length (number of nodes)"},
			{Name: "C", Default: 20.0, Help: "link capacity per node [kbit/slot]"},
			{Name: "n0", Default: 30, Help: "number of through MMOO flows"},
			{Name: "nc", Default: 60, Help: "number of cross MMOO flows per node"},
			{Name: "sched", Default: "fifo", Help: "scheduler: fifo, bmux, sp, edf, gps, drr"},
			{Name: "agg", Default: "per-source", Help: "traffic aggregation: per-source (n Bernoulli draws per slot) or count (O(1) binomial count chain; same law, different RNG stream)"},
			{Name: "edf-d0", Default: 5.0, Help: "EDF deadline of the through traffic [slots]"},
			{Name: "edf-dc", Default: 50.0, Help: "EDF deadline of the cross traffic [slots]"},
			{Name: "gps-w0", Default: 1.0, Help: "GPS weight of the through traffic"},
			{Name: "gps-wc", Default: 1.0, Help: "GPS weight of the cross traffic"},
			{Name: "pktsize", Default: 0.0, Help: "packet size for non-preemptive service (0 = fluid); fifo/bmux/sp/edf only"},
			{Name: "slots", Default: 200000, Help: "total simulation budget in slots (split across replications)"},
			{Name: "reps", Default: 1, Help: "independent replications with SplitMix64-derived seeds; reps>1 merges distributions and adds Student-t CI metrics"},
			{Name: "simworkers", Default: 0, Help: "max concurrent replications (0 = all cores)"},
			{Name: "measure", Default: "exact", Help: "measurement backend: exact (full per-slot samples) or sketch (fixed-memory mergeable quantile sketch with a reported rank-error bound)"},
			{Name: "seed", Default: int64(1), Help: "RNG seed (root of the replication seed stream)"},
			{Name: "eps", Default: 1e-2, Help: "violation probability for the analytical bound"},
			{Name: "probe-every", Default: 1, Help: "per-node probe sampling stride in slots (0 disables the probe; netsim probes only with -report)"},
		},
		Backends: Both,
	}
}

func (tandemScenario) Points(cfg Config) ([]Point, error) {
	id := "tandem/" + cfg.Str("sched") +
		"/h=" + strconv.Itoa(cfg.Int("H")) +
		"/n0=" + strconv.Itoa(cfg.Int("n0")) +
		"/nc=" + strconv.Itoa(cfg.Int("nc")) +
		"/slots=" + strconv.Itoa(cfg.Int("slots")) +
		"/seed=" + strconv.FormatInt(cfg.Int64("seed"), 10)
	// The default aggregation keeps its historical ID so existing
	// checkpoints resume; the count chain samples a different RNG stream
	// and must not be confused with per-source results.
	if agg := cfg.Str("agg"); agg != "per-source" {
		id += "/agg=" + agg
	}
	// A replicated point samples different (shorter, multi-seed) paths
	// than the single run, so its checkpoint identity must differ; reps=1
	// keeps the historical ID.
	if reps := cfg.Int("reps"); reps > 1 {
		id += "/reps=" + strconv.Itoa(reps)
	}
	// The sketch backend reports approximate quantiles, so its results
	// must not satisfy an exact-backend checkpoint; the exact default
	// keeps the historical ID.
	if ms := cfg.Str("measure"); ms != "exact" {
		id += "/measure=" + ms
	}
	return []Point{{ID: id}}, nil
}

func (tandemScenario) Evaluate(ctx context.Context, cfg Config, _ Point, be Backend) (Result, error) {
	var (
		h     = cfg.Int("H")
		c     = cfg.Float("C")
		n0    = cfg.Int("n0")
		nc    = cfg.Int("nc")
		sched = cfg.Str("sched")
		slots = cfg.Int("slots")
		reps  = cfg.Int("reps")
		eps   = cfg.Float("eps")
		pkt   = cfg.Float("pktsize")
		agg   = cfg.Str("agg")
	)
	if err := checkPath(h, c); err != nil {
		return Result{}, err
	}
	if n0 < 0 || nc < 0 {
		return Result{}, fmt.Errorf("%w: -n0 and -nc must be flow counts >= 0, got %d and %d", core.ErrBadConfig, n0, nc)
	}
	if agg != "per-source" && agg != "count" {
		return Result{}, fmt.Errorf("%w: -agg must be per-source or count, got %q", core.ErrBadConfig, agg)
	}
	if slots <= 0 {
		return Result{}, fmt.Errorf("%w: -slots must be positive, got %d", core.ErrBadConfig, slots)
	}
	if reps < 1 {
		return Result{}, fmt.Errorf("%w: -reps must be >= 1, got %d", core.ErrBadConfig, reps)
	}
	if reps > slots {
		return Result{}, fmt.Errorf("%w: %d slots cannot split into %d replications", core.ErrBadConfig, slots, reps)
	}
	if eps <= 0 || eps >= 1 || math.IsNaN(eps) {
		return Result{}, fmt.Errorf("%w: -eps must be in (0,1), got %g", core.ErrBadConfig, eps)
	}
	if !(pkt >= 0) || math.IsInf(pkt, 0) {
		return Result{}, fmt.Errorf("%w: -pktsize must be 0 (fluid) or positive and finite, got %g", core.ErrBadConfig, pkt)
	}
	backend, err := measure.ParseBackend(cfg.Str("measure"))
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", core.ErrBadConfig, err)
	}

	if err := checkSchedParams(cfg, "edf-d0", "edf-dc", "gps-w0", "gps-wc"); err != nil {
		return Result{}, err
	}
	src := envelope.PaperSource()
	mkSched, delta, err := SchedulerFor(sched,
		cfg.Float("edf-d0"), cfg.Float("edf-dc"),
		cfg.Float("gps-w0"), cfg.Float("gps-wc"))
	if err != nil {
		return Result{}, err
	}
	if pkt > 0 {
		if sched == "gps" || sched == "drr" {
			return Result{}, fmt.Errorf("%w: -pktsize applies to precedence schedulers only", core.ErrBadConfig)
		}
		inner := mkSched
		mkSched = func(node int) sim.Scheduler {
			// Every remaining discipline runs on a HeadQueue.
			np, err := sim.NewNonPreemptive(inner(node).(sim.HeadQueue), pkt)
			if err != nil {
				panic(err) // packet size validated above
			}
			return np
		}
	}

	var detail TandemDetail
	bound := math.NaN()
	if be.Has(Analytic) {
		// GPS and DRR are not Δ-schedulers; the BMUX bound still applies
		// to any work-conserving locally-FIFO discipline and is reported
		// instead.
		detail.BoundLabel = "analytical bound"
		if math.IsNaN(delta) {
			delta = math.Inf(1)
			detail.BoundLabel = "BMUX fallback bound (not a Δ-scheduler)"
		}
		// Both aggregates share the source model, so the memo prices each
		// decay α once instead of once per aggregate.
		memo, err := envelope.NewEBMemo(src)
		if err != nil {
			return Result{}, err
		}
		res, _, err := pathSetup(ctx, c, eps).PathBound(memo, h, float64(n0), float64(nc), delta)
		if err != nil {
			return Result{}, fmt.Errorf("computing the bound: %w", err)
		}
		detail.Res = res
		bound = res.D
	}

	out := Result{Analytic: bound}
	if be.Has(Sim) {
		rep, err := runReplicated(ctx, simSpec{
			Src:        src,
			H:          h,
			C:          c,
			N0:         n0,
			Nc:         nc,
			CountAgg:   agg == "count",
			MkSched:    mkSched,
			Slots:      slots,
			Seed:       cfg.Int64("seed"),
			Every:      cfg.Int("probe-every"),
			Progress:   cfg.Progress(),
			Reps:       reps,
			SimWorkers: cfg.Int("simworkers"),
			Measure:    backend,
		})
		if err != nil {
			return Result{}, err
		}
		detail.Stats = rep.Stats
		detail.Dist = rep.Dist
		detail.Probe = rep.Probe
		detail.PerRep = rep.PerRep
		detail.Reps = rep.Reps
		detail.SlotsPerRep = rep.SlotsPerRep
		out.Sim = simMetrics(rep, eps, bound)
	}
	out.Detail = detail
	return out, nil
}

func init() { Register(tandemScenario{}) }
