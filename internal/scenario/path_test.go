package scenario

import (
	"context"
	"math"
	"strings"
	"testing"
)

const validConfig = `{
  "eps": 1e-9,
  "source": {"peak": 1.5, "p11": 0.989, "p22": 0.9},
  "throughFlows": 100,
  "nodes": [
    {"c": 100, "crossFlows": 150, "sched": "fifo"},
    {"c": 60,  "crossFlows": 50,  "sched": "edf", "edfD0": 5, "edfDc": 50},
    {"c": 100, "crossFlows": 150, "sched": "bmux"}
  ]
}`

func TestParsePathFileValid(t *testing.T) {
	pf, err := ParsePathFile([]byte(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Nodes) != 3 || pf.ThroughFlows != 100 {
		t.Fatalf("unexpected parse result: %+v", pf)
	}
	d, err := pf.Nodes[1].Delta()
	if err != nil {
		t.Fatal(err)
	}
	if d != -45 {
		t.Fatalf("EDF delta = %g, want -45", d)
	}
	if d, _ := pf.Nodes[2].Delta(); !math.IsInf(d, 1) {
		t.Fatalf("BMUX delta = %g, want +Inf", d)
	}
}

func TestParsePathFileErrors(t *testing.T) {
	tests := []struct {
		name string
		mut  func(string) string
		want string // the field path the error must name, if any
	}{
		{"bad eps", func(s string) string { return strings.Replace(s, "1e-9", "2", 1) }, "config: eps: "},
		{"zero through", func(s string) string { return strings.Replace(s, `"throughFlows": 100`, `"throughFlows": 0`, 1) }, "config: throughFlows: "},
		{"no nodes", func(s string) string {
			i := strings.Index(s, `"nodes"`)
			return s[:i] + `"nodes": []}`
		}, "config: nodes: "},
		{"bad scheduler", func(s string) string { return strings.Replace(s, `"fifo"`, `"wfq"`, 1) }, "config: nodes[0].sched: "},
		{"edf missing deadlines", func(s string) string {
			return strings.Replace(s, `"sched": "edf", "edfD0": 5, "edfDc": 50`, `"sched": "edf"`, 1)
		}, "config: nodes[1].edfD0: "},
		{"edf negative cross deadline", func(s string) string { return strings.Replace(s, `"edfDc": 50`, `"edfDc": -50`, 1) }, "config: nodes[1].edfDc: "},
		// JSON has no infinity: the decoder rejects an overflowing number
		// before any field check (TestPathNodeDeltaNamesField covers +Inf).
		{"edf overflowing deadline", func(s string) string { return strings.Replace(s, `"edfD0": 5`, `"edfD0": 1e400`, 1) }, ""},
		{"unknown field", func(s string) string { return strings.Replace(s, `"eps"`, `"epsilon"`, 1) }, ""},
		{"zero capacity", func(s string) string { return strings.Replace(s, `"c": 60`, `"c": 0`, 1) }, "config: nodes[1].c: "},
		{"invalid source", func(s string) string { return strings.Replace(s, `"p11": 0.989`, `"p11": 1.7`, 1) }, "config: source: "},
		{"not json", func(string) string { return "{" }, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParsePathFile([]byte(tt.mut(validConfig)))
			if err == nil {
				t.Fatalf("expected parse error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not name %q", err, tt.want)
			}
		})
	}
}

// Delta's errors start with the JSON name of the bad field, so
// ParsePathFile's wrap reads nodes[i].<field>. An infinite deadline would
// price BMUX's (d0) or SP's (dc) bound; NaN would fail the α sweep.
func TestPathNodeDeltaNamesField(t *testing.T) {
	for _, tc := range []struct {
		node PathNode
		want string
	}{
		{PathNode{Sched: "wfq"}, "sched: "},
		{PathNode{Sched: "edf", EDFD0: math.Inf(1), EDFDc: 5}, "edfD0: "},
		{PathNode{Sched: "edf", EDFD0: math.NaN(), EDFDc: 5}, "edfD0: "},
		{PathNode{Sched: "edf", EDFD0: 5, EDFDc: math.Inf(1)}, "edfDc: "},
		{PathNode{Sched: "edf", EDFD0: 5, EDFDc: 0}, "edfDc: "},
	} {
		if _, err := tc.node.Delta(); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want prefix %q", tc.node, err, tc.want)
		}
	}
}

func TestHeteroBoundFromConfig(t *testing.T) {
	pf, err := ParsePathFile([]byte(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	res, err := HeteroBound(context.Background(), pf)
	if err != nil {
		t.Fatal(err)
	}
	if res.D <= 0 || res.D > 1e5 {
		t.Fatalf("implausible bound %g", res.D)
	}
	// The 60 Mbps node is the bottleneck: tightening it must worsen the
	// bound, relaxing it must improve it.
	tighter := pf
	tighter.Nodes = append([]PathNode(nil), pf.Nodes...)
	tighter.Nodes[1].C = 45
	resT, err := HeteroBound(context.Background(), tighter)
	if err != nil {
		t.Fatal(err)
	}
	if resT.D <= res.D {
		t.Fatalf("tighter bottleneck should worsen the bound: %g vs %g", resT.D, res.D)
	}
}
