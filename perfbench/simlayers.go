package main

import (
	"runtime"
	"time"

	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
	"deltasched/internal/randx"
	"deltasched/internal/scenario"
	"deltasched/internal/sim"
	"deltasched/internal/traffic"
)

// The simulator layers are attributed on one replication of the
// workload — the run itself for -reps 1, replication 0 (seeded
// randx.NewSeedStream(seed).Seed(0)) otherwise — built exactly as the
// tandem scenario builds it. One round times, in order:
//
//	whole    sim.Tandem.Run on the real sources and sink, then the
//	         summary and netsim's queries: the replication as the CLI
//	         pays for it;
//	fill     the same sources, drained slot-major (through first, then
//	         cross in node order — the draw order Tandem.Run keeps for
//	         sources sharing one RNG) into per-node arrival arrays;
//	serve    sim.Tandem.Run over traffic.Trace replays of those
//	         arrivals with the scenario's scheduler, into a capturing
//	         measure.SlotSink;
//	record   the captured (A, D) pairs replayed into the workload's
//	         recorder (NewDelayRecorder or NewStreamRecorder);
//	summary  Distribution or Finish (+ MergeSummaries for replicated
//	         runs) and netsim's queries.
//
// The rebuilt replication must answer as the CLI run did, the serve
// replay must reproduce the whole run's counters bit for bit, and the
// record replay its answers; each is a self-check that fails the run.
// layer_sum_frac = (fill+serve+record+summary)/whole then shows a missed
// or double-counted layer. Its expected residual is the replay's own
// overhead: the trace copy and the capture sink, a few percent.

// simLayers summarizes the rounds run: per-part times are medians, and
// the shares are medians of per-round ratios, so host speed drifting
// between rounds cancels out of them.
type simLayers struct {
	slots                               int
	whole, fill, serve, record, summary float64 // seconds
	fillShare, serveShare, recordShare  float64
	layerSum                            float64
}

// Index of each part in a round's timings.
const (
	partWhole = iota
	partFill
	partServe
	partRecord
	partSummary
	nParts
)

// Rounds per decomposition: at least minRounds, more while the budget
// lasts, at most maxRounds.
const (
	minRounds = 3
	maxRounds = 7
)

// captureSink is the benchmark's SlotSink: it keeps every slot's
// cumulative through-flow curves.
type captureSink struct{ a, d []float64 }

func (c *captureSink) Record(a, d float64) error {
	c.a = append(c.a, a)
	c.d = append(c.d, d)
	return nil
}

// replication is the tandem replication under decomposition.
type replication struct {
	t       *tandemShape
	seed    int64
	slots   int
	bound   float64
	backend measure.Backend
	merge   bool
	mkSched func(int) sim.Scheduler
}

func decomposeSim(w workload, seed int64, out *tandemOut, root *obs.Span, budget time.Duration, res *result) (simLayers, error) {
	t := w.tandem
	r := replication{t: t, seed: seed, slots: tandemSlots, bound: out.det.Res.D, merge: t.reps > 1}
	if t.reps > 1 {
		r.seed = randx.NewSeedStream(seed).Seed(0)
		r.slots = tandemSlots / t.reps
	}
	var err error
	if r.backend, err = measure.ParseBackend(t.measure); err != nil {
		return simLayers{}, err
	}
	if r.mkSched, _, err = scenario.SchedulerFor(t.sched, t.edfD0, t.edfDc, 1, 1); err != nil {
		return simLayers{}, err
	}
	sp := root.Child("sim.decompose")
	defer sp.End()

	var rounds [][nParts]float64
	start := time.Now()
	for len(rounds) < minRounds || (len(rounds) < maxRounds && time.Since(start)*time.Duration(len(rounds)+1)/time.Duration(len(rounds)) <= budget) {
		parts, err := r.round(sp, len(rounds) == 0, out, res)
		if err != nil {
			return simLayers{}, err
		}
		rounds = append(rounds, parts)
	}
	med := func(f func(p [nParts]float64) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, p := range rounds {
			xs[i] = f(p)
		}
		return median(xs)
	}
	part := func(i int) float64 { return med(func(p [nParts]float64) float64 { return p[i] }) }
	share := func(i int) float64 { return med(func(p [nParts]float64) float64 { return p[i] / p[partWhole] }) }
	return simLayers{
		slots: r.slots,
		whole: part(partWhole), fill: part(partFill), serve: part(partServe),
		record: part(partRecord), summary: part(partSummary),
		fillShare: share(partFill), serveShare: share(partServe), recordShare: share(partRecord),
		layerSum: med(func(p [nParts]float64) float64 {
			return (p[partFill] + p[partServe] + p[partRecord] + p[partSummary]) / p[partWhole]
		}),
	}, nil
}

// sources builds the replication's through and cross aggregates on one
// shared RNG, as the tandem scenario does.
func (r replication) sources() (traffic.Source, []traffic.Source, error) {
	rng := randx.NewRand(r.seed)
	src := envelope.PaperSource()
	mk := func(n int) (traffic.Source, error) {
		if r.t.agg == "count" {
			return traffic.NewMMOOCountAggregate(src, n, rng)
		}
		return traffic.NewMMOOAggregate(src, n, rng)
	}
	through, err := mk(tandemN0)
	if err != nil {
		return nil, nil, err
	}
	cross := make([]traffic.Source, r.t.h)
	for i := range cross {
		if cross[i], err = mk(tandemNc); err != nil {
			return nil, nil, err
		}
	}
	return through, cross, nil
}

// answer is what netsim's queries read from a summary.
type answer struct {
	q         [4]int
	max       int
	violation float64
}

// query finishes a summary and runs netsim's queries on it.
func (r replication) query(sum measure.Summary) (answer, error) {
	if r.merge {
		pooled, err := measure.MergeSummaries([]measure.Summary{sum})
		if err != nil {
			return answer{}, err
		}
		sum = pooled
	}
	var a answer
	for i, p := range netsimQuantiles {
		a.q[i], _ = sum.Quantile(p)
	}
	a.max, _ = sum.Max()
	a.violation = sum.ViolationFraction(r.bound)
	_ = sum.RankError() + sum.CensoredFraction() + float64(sum.MemoryBytes())
	return a, nil
}

// round times whole, fill, serve, record and summary once, in seconds.
// On the first round the whole replication is compared with the traced
// pass: its replication 0 when replicated, the run itself otherwise.
func (r replication) round(parent *obs.Span, compare bool, out *tandemOut, res *result) ([nParts]float64, error) {
	var parts [nParts]float64
	timed := func(i int, name string, fn func() error) error {
		runtime.GC()
		sp := parent.Child(name)
		t0 := time.Now()
		err := fn()
		parts[i] = time.Since(t0).Seconds()
		sp.End()
		return err
	}

	var (
		wholeStats sim.Stats
		wholeAns   answer
	)
	through, cross, err := r.sources()
	if err != nil {
		return parts, err
	}
	if err := timed(partWhole, "sim.whole", func() error {
		tan := &sim.Tandem{C: tandemC, Through: through, Cross: cross, MakeSched: r.mkSched}
		var stream *measure.StreamRecorder
		if r.backend != measure.BackendExact {
			stream = measure.NewStreamRecorder(r.backend.New())
			tan.Sink = stream
		}
		rec, st, err := tan.Run(r.slots)
		if err != nil {
			return err
		}
		wholeStats = st
		var sum measure.Summary
		if stream != nil {
			sum = stream.Finish()
		} else {
			d := rec.Distribution()
			sum = &d
		}
		wholeAns, err = r.query(sum)
		return err
	}); err != nil {
		return parts, err
	}
	switch {
	case compare && r.t.reps > 1:
		rep0, err := r.query(out.det.PerRep[0])
		if err != nil {
			return parts, err
		}
		res.selfCheck(rep0 == wholeAns, "replication 0 rebuilt as %+v, the CLI run had %+v", wholeAns, rep0)
	case compare:
		res.selfCheck(wholeStats == out.det.Stats && wholeAns.q == out.quantiles,
			"replication rebuilt with %+v %v, the CLI run had %+v %v", wholeStats, wholeAns.q, out.det.Stats, out.quantiles)
	}

	// Fill: the arrival arrays are allocated before the clock starts.
	through, cross, err = r.sources()
	if err != nil {
		return parts, err
	}
	thr := make([]float64, r.slots)
	crs := make([][]float64, len(cross))
	for i := range crs {
		crs[i] = make([]float64, r.slots)
	}
	_ = timed(partFill, "traffic.fill", func() error {
		for j := range thr {
			thr[j] = through.Next()
			for i, cs := range cross {
				crs[i][j] = cs.Next()
			}
		}
		return nil
	})

	capt := &captureSink{a: make([]float64, 0, r.slots), d: make([]float64, 0, r.slots)}
	replay := make([]traffic.Source, len(crs))
	for i := range crs {
		replay[i] = &traffic.Trace{Data: crs[i]}
	}
	var serveStats sim.Stats
	if err := timed(partServe, "sim.Tandem.Run", func() error {
		tan := &sim.Tandem{C: tandemC, Through: &traffic.Trace{Data: thr}, Cross: replay,
			MakeSched: r.mkSched, Sink: capt, IndependentSources: true}
		_, st, err := tan.Run(r.slots)
		serveStats = st
		return err
	}); err != nil {
		return parts, err
	}
	res.selfCheck(serveStats == wholeStats, "serve replay diverged: %+v vs %+v", serveStats, wholeStats)

	var (
		rec    *measure.DelayRecorder
		stream *measure.StreamRecorder
	)
	if err := timed(partRecord, "measure.record", func() error {
		var sink measure.SlotSink
		if r.backend == measure.BackendExact {
			rec = measure.NewDelayRecorder(r.slots)
			sink = rec
		} else {
			stream = measure.NewStreamRecorder(r.backend.New())
			sink = stream
		}
		for j := range capt.a {
			if err := sink.Record(capt.a[j], capt.d[j]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return parts, err
	}
	var ans answer
	if err := timed(partSummary, "measure.summary", func() error {
		var sum measure.Summary
		if stream != nil {
			sum = stream.Finish()
		} else {
			d := rec.Distribution()
			sum = &d
		}
		ans, err = r.query(sum)
		return err
	}); err != nil {
		return parts, err
	}
	res.selfCheck(ans == wholeAns, "record replay answered %+v, the whole run %+v", ans, wholeAns)
	return parts, nil
}

// report emits the traffic, sim and measure metrics (zero for the
// analytic-only workload).
func (s simLayers) report(out *tandemOut, put func(string, float64, string)) {
	per := func(x float64) float64 { return ratio(x*1e9, float64(s.slots)) }
	put("traffic.fill_ns_per_slot", per(s.fill), "ns")
	put("traffic.fill_share", s.fillShare, "1")
	put("sim.serve_ns_per_slot", per(s.serve), "ns")
	put("sim.serve_share", s.serveShare, "1")
	put("sim.whole_ns_per_slot", per(s.whole), "ns")
	put("sim.layer_sum_frac", s.layerSum, "1")
	put("measure.record_ns_per_slot", per(s.record), "ns")
	put("measure.record_share", s.recordShare, "1")
	put("measure.summary_ms", s.summary*1e3, "ms")
	var slots, backlog, bytes, rankErr float64
	if out != nil {
		slots = float64(out.det.Reps * out.det.SlotsPerRep)
		backlog = out.det.Stats.MaxBacklog
		bytes = float64(out.det.Dist.MemoryBytes())
		rankErr = out.det.Dist.RankError()
	}
	put("sim.slots", slots, "count")
	put("sim.max_backlog_kbit", backlog, "kbit")
	put("measure.summary_bytes", bytes, "B")
	put("measure.rank_error", rankErr, "1")
}
