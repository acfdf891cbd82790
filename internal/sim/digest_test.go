package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/measure"
	"deltasched/internal/randx"
	"deltasched/internal/traffic"
)

// The digest test pins every discipline's simulated output to recorded
// values. The parity tests compare two slot loops that share one
// scheduler implementation, and the scenario goldens cover FIFO, BMUX
// and EDF only, so a change inside SP, GPS, DRR or the packetized
// wrapper — or inside Network or SingleNode — would pass both. Each
// literal below is the FNV-64a digest of one (discipline, topology) run:
// every per-slot virtual delay, the recorders' backlogs, the Stats
// fields and every probe observation, hashed as raw bits.

// digester feeds simulator outputs into an FNV-64a hash as raw bits.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) putInt(v int)       { d.u64(uint64(int64(v))) }
func (d *digester) putFloat(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) putBool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// recorder hashes every slot's virtual delay and the recorder's final
// and peak backlogs.
func (d *digester) recorder(r *measure.DelayRecorder) {
	d.putInt(r.Slots())
	for slot := 0; slot < r.Slots(); slot++ {
		v, ok := r.VirtualDelay(slot)
		d.putInt(v)
		d.putBool(ok)
	}
	d.putFloat(r.Backlog())
	d.putFloat(r.MaxBacklog())
}

func (d *digester) stats(s Stats) {
	d.putFloat(s.ThroughArrived)
	d.putFloat(s.ThroughLeft)
	d.putFloat(s.CrossArrived)
	d.putFloat(s.MaxBacklog)
}

func (d *digester) observations(obs []parityObs) {
	d.putInt(len(obs))
	for _, o := range obs {
		d.putInt(o.node)
		d.putInt(o.slot)
		d.putFloat(o.served)
		d.putFloat(o.capacity)
		d.putFloat(o.backlog)
		d.putInt(o.queueLen)
	}
}

const digestSlots = 2600 // crosses two block boundaries of Tandem.Run

// The workloads load every link to 87-93% with more through than cross
// traffic, so the disciplines disagree often enough that no two of them
// share a digest, except the ring and heap FIFO (one discipline, two
// queue layouts) and their packetized wrappers.

// digestTandem runs a 3-node tandem with a probe and per-node recording,
// on the scenario's shared-RNG source wiring.
func digestTandem(t *testing.T, mk func(int) Scheduler) uint64 {
	t.Helper()
	through, cross := mkTandemSources(11, 3, 30, 20, false)
	probe := &parityProbe{stride: 13}
	td := &Tandem{C: 8.4, Through: through, Cross: cross, MakeSched: mk,
		Probe: probe, RecordPerNode: true}
	rec, stats, err := td.Run(digestSlots)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	d.recorder(rec)
	for _, r := range td.PerNode() {
		d.recorder(r)
	}
	d.stats(stats)
	d.observations(probe.obs)
	return d.h.Sum64()
}

// digestNetwork runs a 3-node network whose flows are a 3-hop through
// flow, a 2-hop cross flow over nodes 0 and 1, and a 1-hop cross flow at
// node 2, with a probe attached.
func digestNetwork(t *testing.T, mk func(int) Scheduler) uint64 {
	t.Helper()
	rng := randx.NewRand(12)
	model := envelope.PaperSource()
	var flows []RoutedFlow
	for _, f := range []struct {
		n     int
		route []int
	}{{20, []int{0, 1, 2}}, {30, []int{0, 1}}, {30, []int{2}}} {
		src, err := traffic.NewMMOOAggregate(model, f.n, rng)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, RoutedFlow{Src: src, Route: f.route})
	}
	probe := &parityProbe{stride: 13}
	n := &Network{Capacities: []float64{8, 8.5, 8}, MakeSched: mk, Flows: flows, Probe: probe}
	recs, err := n.Run(digestSlots)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for _, r := range recs {
		d.recorder(r)
	}
	d.observations(probe.obs)
	return d.h.Sum64()
}

// digestSingleNode runs one link shared by the through and cross flows.
func digestSingleNode(t *testing.T, mk func(int) Scheduler) uint64 {
	t.Helper()
	rng := randx.NewRand(13)
	model := envelope.PaperSource()
	through, err := traffic.NewMMOOAggregate(model, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := traffic.NewMMOOAggregate(model, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	node := &SingleNode{C: 8.2, Sched: mk(0), Sources: map[core.FlowID]traffic.Source{
		ThroughFlow: through, CrossFlow: cross,
	}}
	recs, err := node.Run(digestSlots)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for _, f := range []core.FlowID{ThroughFlow, CrossFlow} {
		d.recorder(recs[f])
	}
	return d.h.Sum64()
}

// TestSchedulerOutputDigests runs every discipline of paritySchedulers
// through Tandem, Network and SingleNode and compares the output digests
// with the recorded literals.
func TestSchedulerOutputDigests(t *testing.T) {
	want := map[string]uint64{
		"bmux/network":         0xccfa618f1662633f,
		"bmux/single":          0x8e009509eb9080c4,
		"bmux/tandem":          0x5a64610c18cbb3e4,
		"drr/network":          0x2240aed1d46108c0,
		"drr/single":           0x36f4c8bb3ada2975,
		"drr/tandem":           0xced0ddcc7ef1dafa,
		"edf/network":          0xf392ab8a57167d10,
		"edf/single":           0x67d3f1370d78edff,
		"edf/tandem":           0x3819f44a64a68c24,
		"fifo-heap/network":    0x644921ea52c150be,
		"fifo-heap/single":     0xb7ce304498da6fec,
		"fifo-heap/tandem":     0x9dcc47c891c67449,
		"fifo-ring/network":    0x644921ea52c150be,
		"fifo-ring/single":     0xb7ce304498da6fec,
		"fifo-ring/tandem":     0x9dcc47c891c67449,
		"gps/network":          0x9994f4cf4d43e1c0,
		"gps/single":           0x831d32a56ee9beed,
		"gps/tandem":           0x56d720da7fba3089,
		"np-edf/network":       0x8f2dc66308284f88,
		"np-edf/single":        0xe0281b1a65022545,
		"np-edf/tandem":        0x50c338a26531b7f4,
		"np-fifo-heap/network": 0x81ac115f89bc1eac,
		"np-fifo-heap/single":  0xf1e6262d816f0658,
		"np-fifo-heap/tandem":  0xe3ae7adccafb711d,
		"np-fifo-ring/network": 0x81ac115f89bc1eac,
		"np-fifo-ring/single":  0xf1e6262d816f0658,
		"np-fifo-ring/tandem":  0xe3ae7adccafb711d,
		"np-sp/network":        0x7b8d65e3181653cf,
		"np-sp/single":         0xe2bfd53e7b9dfa9f,
		"np-sp/tandem":         0xa5271d11b9225586,
		"sp/network":           0xbab835fa457a3937,
		"sp/single":            0x4cf93adea35ba6d7,
		"sp/tandem":            0x152bc50373a9baca,
	}
	got := map[string]uint64{}
	for name, mk := range paritySchedulers() {
		got[name+"/tandem"] = digestTandem(t, mk)
		got[name+"/network"] = digestNetwork(t, mk)
		got[name+"/single"] = digestSingleNode(t, mk)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok || got[k] != w {
			t.Errorf("%s: digest %#016x, want %#016x (recorded: %v)", k, got[k], w, ok)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d recorded digests for %d runs", len(want), len(got))
	}
}
