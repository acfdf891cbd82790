package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"deltasched/internal/core"
	"deltasched/internal/measure"
	"deltasched/internal/traffic"
)

// Flow identifiers inside a tandem node: the through aggregate is flow 0,
// the local cross aggregate flow 1 (cross traffic leaves after one hop, as
// in the paper's Fig. 1).
const (
	ThroughFlow core.FlowID = 0
	CrossFlow   core.FlowID = 1
)

// Tandem simulates the multi-node network of the paper's Fig. 1: through
// traffic traverses H identical-capacity nodes in sequence; independent
// cross traffic joins at each node and departs after that node.
//
// Forwarding is cut-through within a slot: node h's slot-t departures are
// offered to node h+1 in the same slot (matching the fluid service-curve
// semantics where a network path can be traversed instantaneously when
// capacity allows).
type Tandem struct {
	C         float64                  // per-node capacity (bits per slot)
	Through   traffic.Source           // through aggregate at the ingress
	Cross     []traffic.Source         // per-node cross aggregates (nil = no cross traffic); len = H
	MakeSched func(node int) Scheduler // scheduler factory, one per node

	// RecordPerNode additionally tracks the through flow's arrival and
	// departure curves at every node, exposing per-hop delay
	// decompositions through PerNode after Run.
	RecordPerNode bool

	// Sink, when non-nil, receives the through flow's end-to-end
	// cumulative (arrivals, departures) pair each slot in place of the
	// internal retained-curve recorder, and Run returns a nil recorder.
	// Feed a measure.StreamRecorder here to keep measurement memory
	// independent of the horizon (the sketch backend's streaming path).
	Sink measure.SlotSink

	// Probe, when non-nil, observes every node's post-service state on
	// the slots it elects to sample (see Probe). Probes never alter the
	// simulation: a run with a probe attached is bit-identical to one
	// without.
	Probe Probe

	// Progress, when non-nil, is invoked every ProgressEvery slots
	// (default 1000) and once after the final slot, with the number of
	// completed slots and the total.
	Progress      func(done, total int)
	ProgressEvery int

	// Ctx, when non-nil, cancels the run: the slot loop checks it every
	// ProgressEvery slots and returns its error, so a multi-minute
	// simulation dies within one progress interval of an interrupt. Nil
	// means run to completion.
	Ctx context.Context

	// IndependentSources declares that Through and every Cross source
	// draw from disjoint RNG streams (or are deterministic). The block
	// loop does not need the declaration: it always fills slot-major,
	// which keeps the draw order of sources sharing one RNG and, for
	// disjoint streams, gives the same sample path as any other order.
	IndependentSources bool

	nodes   []Scheduler
	perNode []*measure.DelayRecorder

	// Block-engine scratch reused across Runs of the same shape, so a
	// replicated sweep pays the buffer allocations once, not per Run.
	blkFloat []float64 // through block + cross blocks backing
	blkBool  []bool    // hasCross
	blkFIFO  []*FIFO   // per-node ring devirtualization
}

// PerNode returns the per-node through-flow delay recorders of the last
// Run; nil unless RecordPerNode was set.
func (t *Tandem) PerNode() []*measure.DelayRecorder { return t.perNode }

// Stats carries aggregate counters from a run.
type Stats struct {
	ThroughArrived float64
	ThroughLeft    float64
	CrossArrived   float64
	MaxBacklog     float64 // largest per-node backlog observed
}

// Run advances the tandem by the given number of slots and returns the
// through flow's end-to-end delay recorder.
func (t *Tandem) Run(slots int) (*measure.DelayRecorder, Stats, error) {
	if t.C <= 0 {
		return nil, Stats{}, fmt.Errorf("sim: capacity must be positive, got %g", t.C)
	}
	if t.Through == nil {
		return nil, Stats{}, errors.New("sim: tandem needs a through source")
	}
	if len(t.Cross) == 0 {
		return nil, Stats{}, errors.New("sim: tandem needs at least one node (len(Cross) = H)")
	}
	if t.MakeSched == nil {
		return nil, Stats{}, errors.New("sim: tandem needs a scheduler factory")
	}
	h := len(t.Cross)
	t.nodes = make([]Scheduler, h)
	for i := range t.nodes {
		t.nodes[i] = t.MakeSched(i)
		if t.nodes[i] == nil {
			return nil, Stats{}, fmt.Errorf("sim: scheduler factory returned nil for node %d", i)
		}
	}

	t.perNode = nil
	var nodeA, nodeD []float64
	if t.RecordPerNode {
		t.perNode = make([]*measure.DelayRecorder, h)
		for i := range t.perNode {
			t.perNode[i] = measure.NewDelayRecorder(slots)
		}
		nodeA = make([]float64, h)
		nodeD = make([]float64, h)
	}

	progressEvery := t.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 1000
	}

	var (
		rec  *measure.DelayRecorder
		sink measure.SlotSink
	)
	if t.Sink != nil {
		sink = t.Sink
	} else {
		rec = measure.NewDelayRecorder(slots)
		sink = rec
	}

	// The slot loop runs in blocks: a fill pass drains the sources into
	// per-node arrival buffers, then a serve pass replays the buffered
	// slots through the schedulers. The serve pass is slot-major, so every
	// accumulator (cumulative curves, stats, backlog) sees the exact float
	// addition order of the old per-slot loop regardless of how the
	// buffers were filled — which is what keeps the goldens byte-stable.
	bs := blockSlots
	if slots < bs {
		bs = slots
	}
	if bs < 0 {
		bs = 0
	}
	if need := bs + h*bs; cap(t.blkFloat) < need {
		t.blkFloat = make([]float64, need)
	}
	if cap(t.blkBool) < h {
		t.blkBool = make([]bool, h)
	}
	if cap(t.blkFIFO) < h {
		t.blkFIFO = make([]*FIFO, h)
	}
	fb := t.blkFloat[:bs+h*bs]
	st := &tandemState{
		t:        t,
		nodes:    t.nodes,
		hasCross: t.blkBool[:h:h],
		fifos:    t.blkFIFO[:h:h],
		bs:       bs,
		thr:      fb[:bs:bs],
		cross:    fb[bs:],
		sink:     sink,
		nodeA:    nodeA,
		nodeD:    nodeD,
	}
	// Hoist the per-slot branches of the old loop: cross-source presence,
	// FIFO-ring and sink devirtualization.
	allFIFO := true
	for i, n := range t.nodes {
		st.hasCross[i] = t.Cross[i] != nil
		// Assign unconditionally: the backing array is reused across Runs
		// and may hold a previous run's entries.
		f, ok := n.(*FIFO)
		st.fifos[i] = f
		if !ok {
			allFIFO = false
		}
	}
	switch s := sink.(type) {
	case *measure.DelayRecorder:
		st.rec = s
	case *measure.StreamRecorder:
		st.stream = s
	}
	// The all-concrete fast pass needs every node to be the FIFO ring and
	// no per-slot instrumentation; anything else takes the generic pass
	// (same numbers, more dispatch).
	if !allFIFO || t.Probe != nil || t.RecordPerNode {
		st.fifos = nil
	}

	done := 0
	for done < slots {
		nb := bs
		if rem := slots - done; nb > rem {
			nb = rem
		}
		// End blocks exactly at progress checkpoints so Progress and Ctx
		// fire at the same slot counts as the per-slot loop did.
		if next := progressEvery - done%progressEvery; nb > next {
			nb = next
		}
		st.fill(nb)
		var err error
		if st.fifos != nil {
			err = st.serveFIFO(done, nb)
		} else {
			err = st.serveGeneric(done, nb)
		}
		if err != nil {
			return nil, Stats{}, err
		}
		done += nb
		if done%progressEvery == 0 {
			if t.Progress != nil {
				t.Progress(done, slots)
			}
			if t.Ctx != nil {
				if err := t.Ctx.Err(); err != nil {
					return nil, Stats{}, fmt.Errorf("sim: run stopped after %d/%d slots: %w", done, slots, err)
				}
			}
		}
	}
	if t.Progress != nil && slots%progressEvery != 0 {
		t.Progress(slots, slots)
	}
	return rec, st.stats, nil
}

// blockSlots is the fill granularity of the batched slot loop: large
// enough to amortize the per-block bookkeeping, small enough that the
// arrival buffers stay cache-resident (a 3-node tandem buffers 32 KiB).
const blockSlots = 1024

// tandemState bundles the hot state of Tandem.Run so the fill and serve
// passes share it without re-deriving per-slot invariants.
type tandemState struct {
	t        *Tandem
	nodes    []Scheduler
	fifos    []*FIFO // non-nil only when the all-FIFO fast pass applies
	hasCross []bool

	bs    int       // row stride of cross (= max block size)
	thr   []float64 // through arrivals for the current block
	cross []float64 // h rows × bs: per-node cross arrivals

	out [2]float64 // serve scratch (tandem nodes have two flows)

	sink   measure.SlotSink
	rec    *measure.DelayRecorder  // devirtualized sink (exact backend)
	stream *measure.StreamRecorder // devirtualized sink (streaming backend)

	stats      Stats
	cumA, cumD float64
	nodeA      []float64
	nodeD      []float64
}

// fill drains the sources for the next nb slots into the block buffers.
func (st *tandemState) fill(nb int) {
	t := st.t
	// Slot-major: the through and cross aggregates share one RNG in the
	// default wiring, so their draws must interleave per slot in exactly
	// the order of the old loop (through first, then cross in node order).
	thr, cross, bs := st.thr, st.cross, st.bs
	for j := 0; j < nb; j++ {
		thr[j] = t.Through.Next()
		for i, cs := range t.Cross {
			if cs != nil {
				cross[i*bs+j] = cs.Next()
			}
		}
	}
}

// record forwards one slot's cumulative curves to the measurement sink
// through the devirtualized pointer when one applies.
func (st *tandemState) record() error {
	if st.rec != nil {
		return st.rec.Record(st.cumA, st.cumD)
	}
	if st.stream != nil {
		return st.stream.Record(st.cumA, st.cumD)
	}
	return st.sink.Record(st.cumA, st.cumD)
}

// serveFIFO is the all-concrete serve pass: every node is the FIFO ring,
// no probe, no per-node recording. No interface dispatch, no map access,
// and MaxBacklog reads the ring's backlog field directly (same float the
// Backlog() call returned). Each node's slot is one fused serveSlot call
// — the arrival-pass Enqueues collapse into it (see serveSlot for the
// bit-identity argument), with the cross-arrival stats accumulated up
// front in node order exactly as the old arrivals pass did.
func (st *tandemState) serveFIFO(base, nb int) error {
	fifos := st.fifos
	h := len(fifos)
	capa, cross, bs := st.t.C, st.cross, st.bs
	stats := &st.stats
	out := st.out[:]
	for j := 0; j < nb; j++ {
		slot := base + j
		a := st.thr[j]
		st.cumA += a
		stats.ThroughArrived += a
		for i := 0; i < h; i++ {
			if st.hasCross[i] {
				stats.CrossArrived += cross[i*bs+j]
			}
		}
		thr := a
		for i := 0; i < h; i++ {
			var x float64
			if st.hasCross[i] {
				x = cross[i*bs+j]
			}
			out[0], out[1] = 0, 0
			n := fifos[i]
			n.serveSlot(capa, slot, thr, x, i == 0, out)
			fwd := out[0]
			if i+1 < h {
				thr = fwd
			} else {
				st.cumD += fwd
				stats.ThroughLeft += fwd
			}
			if n.backlog > stats.MaxBacklog {
				stats.MaxBacklog = n.backlog
			}
		}
		if err := st.record(); err != nil {
			return err
		}
	}
	return nil
}

// serveGeneric is the serve pass for any scheduler mix, probes, and
// per-node recording: the old loop body verbatim, reading arrivals from
// the block buffers.
func (st *tandemState) serveGeneric(base, nb int) error {
	t := st.t
	nodes := st.nodes
	h := len(nodes)
	capa := t.C
	for j := 0; j < nb; j++ {
		slot := base + j
		probing := t.Probe != nil && t.Probe.Sample(slot)
		a := st.thr[j]
		st.cumA += a
		st.stats.ThroughArrived += a
		nodes[0].Enqueue(ThroughFlow, slot, a)
		if t.RecordPerNode {
			st.nodeA[0] += a
		}
		for i := 0; i < h; i++ {
			if st.hasCross[i] {
				x := st.cross[i*st.bs+j]
				st.stats.CrossArrived += x
				nodes[i].Enqueue(CrossFlow, slot, x)
			}
		}
		// Serve nodes in path order; through departures cascade within
		// the slot.
		for i := 0; i < h; i++ {
			st.out[0], st.out[1] = 0, 0
			nodes[i].ServeInto(capa, st.out[:])
			s0, s1 := st.out[0], st.out[1]
			if probing {
				observeNode(t.Probe, nodes[i], i, slot, s0+s1, capa)
			}
			fwd := s0
			if t.RecordPerNode {
				st.nodeD[i] += fwd
			}
			if i+1 < h {
				nodes[i+1].Enqueue(ThroughFlow, slot, fwd)
				if t.RecordPerNode {
					st.nodeA[i+1] += fwd
				}
			} else {
				st.cumD += fwd
				st.stats.ThroughLeft += fwd
			}
			if b := nodes[i].Backlog(); b > st.stats.MaxBacklog {
				st.stats.MaxBacklog = b
			}
		}
		if err := st.record(); err != nil {
			return err
		}
		if t.RecordPerNode {
			for i := 0; i < h; i++ {
				if err := t.perNode[i].Record(st.nodeA[i], st.nodeD[i]); err != nil {
					return fmt.Errorf("node %d: %w", i, err)
				}
			}
		}
	}
	return nil
}

// SingleNode simulates one buffered link shared by an arbitrary set of
// flows under any Scheduler — the setting of the paper's Section III and
// of the single-node tightness experiments.
type SingleNode struct {
	C     float64
	Sched Scheduler
	// Sources maps each flow id to its arrivals. Ids must be
	// non-negative: they index Run's dense per-flow state, which spans
	// 0..max id.
	Sources map[core.FlowID]traffic.Source
}

// Run advances the node and returns one delay recorder per flow.
func (n *SingleNode) Run(slots int) (map[core.FlowID]*measure.DelayRecorder, error) {
	if n.C <= 0 {
		return nil, fmt.Errorf("sim: capacity must be positive, got %g", n.C)
	}
	if n.Sched == nil || len(n.Sources) == 0 {
		return nil, errors.New("sim: single node needs a scheduler and sources")
	}
	recs := make(map[core.FlowID]*measure.DelayRecorder, len(n.Sources))
	flows := make([]core.FlowID, 0, len(n.Sources))
	for f := range n.Sources {
		if f < 0 {
			return nil, fmt.Errorf("sim: flow id %d is negative", f)
		}
		recs[f] = measure.NewDelayRecorder(slots)
		flows = append(flows, f)
	}
	// Deterministic iteration order for reproducibility.
	slices.Sort(flows)

	// Dense per-flow state indexed by flow id.
	top := int(flows[len(flows)-1]) + 1
	cumA := make([]float64, top)
	cumD := make([]float64, top)
	out := make([]float64, top)
	for slot := 0; slot < slots; slot++ {
		for _, f := range flows {
			a := n.Sources[f].Next()
			cumA[f] += a
			n.Sched.Enqueue(f, slot, a)
			out[f] = 0
		}
		n.Sched.ServeInto(n.C, out)
		for _, f := range flows {
			cumD[f] += out[f]
			if err := recs[f].Record(cumA[f], cumD[f]); err != nil {
				return nil, fmt.Errorf("sim: flow %d: %w", f, err)
			}
		}
	}
	return recs, nil
}
