package shard

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"deltasched/internal/faults"
	"deltasched/internal/measure"
)

func testUniverse(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ex9/test/h=%d/x=0.%02d", i%4+2, i)
	}
	return ids
}

func testFragment(universe []string, sp Spec) *Fragment {
	records := make(map[string]string)
	for _, idx := range PartitionIndices(len(universe), sp) {
		v := float64(idx)*1.25 + 0.125
		if idx == 3 {
			v = math.NaN() // infeasible points live in fragments too
		}
		records[universe[idx]] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return &Fragment{Sweep: "unit", Shard: sp, UniverseHash: UniverseHash(universe), Records: records}
}

func TestFragmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	universe := testUniverse(11)
	want := testFragment(universe, Spec{1, 3})
	path, err := WriteFragment(dir, want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if path != FragmentPath(dir, "unit", Spec{1, 3}) {
		t.Fatalf("fragment landed at %s", path)
	}
	got, err := ReadFragment(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != "unit" || got.Shard != want.Shard || got.UniverseHash != want.UniverseHash {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("got %d records, want %d", len(got.Records), len(want.Records))
	}
	for id, v := range want.Records {
		if got.Records[id] != v {
			t.Fatalf("record %q = %q, want %q", id, got.Records[id], v)
		}
	}
}

// TestFragmentBytesPinned pins the file format byte for byte: a writer
// change that moves a byte breaks every fragment and checkpoint already
// on disk. The literal was written by the format's first writer, with
// NaN, +Inf and an ID that needs escaping.
func TestFragmentBytesPinned(t *testing.T) {
	f := &Fragment{Sweep: "fig1", Shard: Spec{1, 3}, UniverseHash: 0xc0ffee, Records: map[string]string{
		"ex1/fifo/h=2/x=0.2":     strconv.FormatFloat(123.456789012345, 'g', -1, 64),
		"ex1/bmux/h=5/x=0.35":    strconv.FormatFloat(math.NaN(), 'g', -1, 64),
		"ex3/edf/h=30/x=0.9":     strconv.FormatFloat(math.Inf(1), 'g', -1, 64),
		"ex2/\"quoted\" id\n\tä": strconv.FormatFloat(-1e-300, 'g', -1, 64),
	}}
	const want = "deltasched-fragment v1 sweep=fig1 shard=1/3 universe=0000000000c0ffee\n" +
		"\"ex1/bmux/h=5/x=0.35\" NaN\n" +
		"\"ex1/fifo/h=2/x=0.2\" 123.456789012345\n" +
		"\"ex2/\\\"quoted\\\" id\\n\\tä\" -1e-300\n" +
		"\"ex3/edf/h=30/x=0.9\" +Inf\n" +
		"footer records=4 bytes=124 fnv64a=6ebb15ba066bf774\n"
	path, err := WriteFragment(t.TempDir(), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != want {
		t.Fatalf("fragment bytes changed:\n got %q\nwant %q", raw, want)
	}
	got, err := ReadFragment(path)
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range f.Records {
		if got.Records[id] != v {
			t.Fatalf("record %q = %q, want %q", id, got.Records[id], v)
		}
	}
}

// Fragment records may carry encoded delay summaries instead of scalar
// bounds: both backends must round-trip byte-identically, and a damaged
// summary must fail integrity like any other bad value.
func TestFragmentSummaryRecords(t *testing.T) {
	dir := t.TempDir()
	exact := measure.BackendExact.New()
	sketch := measure.BackendSketch.New()
	for i := 0; i < 5000; i++ {
		exact.Add(i%37, float64(i%11)+0.5)
		sketch.Add(i%37, float64(i%11)+0.5)
	}
	encExact, err := measure.EncodeSummary(exact)
	if err != nil {
		t.Fatal(err)
	}
	encSketch, err := measure.EncodeSummary(sketch)
	if err != nil {
		t.Fatal(err)
	}
	universe := []string{"pt/a", "pt/b", "pt/c"}
	frag := &Fragment{
		Sweep: "unit", Shard: Spec{0, 1}, UniverseHash: UniverseHash(universe),
		Records: map[string]string{
			"pt/a": encExact,
			"pt/b": encSketch,
			"pt/c": "3.25", // scalar and summary records coexist
		},
	}
	path, err := WriteFragment(dir, frag, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFragment(path)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range frag.Records {
		if got.Records[id] != want {
			t.Fatalf("record %q = %q, want %q", id, got.Records[id], want)
		}
	}
	dec, err := measure.DecodeSummary(got.Records["pt/b"])
	if err != nil {
		t.Fatal(err)
	}
	q1, err1 := dec.Quantile(0.9)
	q2, err2 := sketch.Quantile(0.9)
	if err1 != nil || err2 != nil || q1 != q2 {
		t.Fatalf("decoded sketch quantile %d (%v) != original %d (%v)", q1, err1, q2, err2)
	}

	frag.Records["pt/a"] = "m1:exact;not-a-summary"
	if _, err := WriteFragment(dir, frag, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFragment(path); !errors.Is(err, ErrFragmentIntegrity) {
		t.Fatalf("corrupt summary record must fail integrity, got %v", err)
	}
}

func TestFragmentDetectsDamage(t *testing.T) {
	dir := t.TempDir()
	universe := testUniverse(8)
	frag := testFragment(universe, Spec{0, 2})
	path, err := WriteFragment(dir, frag, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{
		"truncated":       clean[:len(clean)*2/3],
		"no-newline":      clean[:len(clean)-1],
		"flipped-byte":    flip(clean, len(clean)/2),
		"flipped-header":  flip(clean, 5),
		"empty":           {},
		"garbage":         []byte("not a fragment at all\n"),
		"footer-severed":  clean[:len(clean)-10],
		"record-injected": append(append([]byte{}, clean[:len(clean)-1]...), []byte("\n\"rogue\" 1\n")...),
	}
	for name, data := range damage {
		p := filepath.Join(dir, name+".frag")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFragment(p)
		if err == nil {
			t.Errorf("%s: damaged fragment read cleanly", name)
			continue
		}
		if !errors.Is(err, ErrFragmentIntegrity) {
			t.Errorf("%s: error %v does not wrap ErrFragmentIntegrity", name, err)
		}
		if ValidFragment(p) {
			t.Errorf("%s: ValidFragment accepted damage", name)
		}
	}

	if !ValidFragment(path) {
		t.Fatal("pristine fragment rejected")
	}
	if _, err := ReadFragment(filepath.Join(dir, "absent.frag")); !os.IsNotExist(err) {
		t.Fatalf("missing fragment: %v, want not-exist", err)
	}
}

func flip(b []byte, at int) []byte {
	out := append([]byte{}, b...)
	out[at] ^= 0xff
	return out
}

func TestWriteFragmentInjectors(t *testing.T) {
	universe := testUniverse(9)

	t.Run("partial", func(t *testing.T) {
		dir := t.TempDir()
		inj, _ := faults.Parse("partial@0")
		path, err := WriteFragment(dir, testFragment(universe, Spec{0, 3}), inj)
		if err != nil {
			t.Fatal(err)
		}
		if ValidFragment(path) {
			t.Fatal("partial write produced a valid fragment")
		}
		// The injector is consumed: the rewrite is clean.
		if _, err := WriteFragment(dir, testFragment(universe, Spec{0, 3}), inj); err != nil {
			t.Fatal(err)
		}
		if !ValidFragment(path) {
			t.Fatal("rewrite after partial injection still invalid")
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		inj, _ := faults.Parse("corrupt@2")
		path, err := WriteFragment(dir, testFragment(universe, Spec{2, 3}), inj)
		if err != nil {
			t.Fatal(err)
		}
		if ValidFragment(path) {
			t.Fatal("corrupted fragment passed validation")
		}
	})
}

func TestUniverseHashOrderSensitive(t *testing.T) {
	a := []string{"p1", "p2", "p3"}
	b := []string{"p2", "p1", "p3"}
	if UniverseHash(a) == UniverseHash(b) {
		t.Fatal("universe hash ignores enumeration order")
	}
	if UniverseHash(a) != UniverseHash([]string{"p1", "p2", "p3"}) {
		t.Fatal("universe hash is not deterministic")
	}
}

func BenchmarkFragmentWriteReadMerge(b *testing.B) {
	dir := b.TempDir()
	universe := testUniverse(512)
	frags := make([]*Fragment, 4)
	for i := range frags {
		frags[i] = testFragment(universe, Spec{i, 4})
		frags[i].Sweep = "unit"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frags {
			if _, err := WriteFragment(dir, f, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := MergeDir(dir, "unit", universe); err != nil {
			b.Fatal(err)
		}
	}
}
