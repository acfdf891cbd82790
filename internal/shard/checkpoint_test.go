package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	c := NewCheckpoint(path)
	values := map[string]float64{
		"ex1/fifo/h=2/x=0.2":     123.456789012345,
		"ex1/bmux/h=5/x=0.35":    1e-300,
		"ex2/edfhalf/h=10/x=0.5": math.NaN(),
		"ex3/bmuxadd/h=30/x=0.9": math.Inf(1),
		"ex3/bmuxadd/h=30/x=1.0": math.Inf(-1),
	}
	for id, v := range values {
		c.Record(id, v)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// On disk the checkpoint is a valid fragment of shard 0 of 1.
	f, err := ReadFragment(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Sweep != "checkpoint" || f.Shard != (Spec{0, 1}) || f.UniverseHash != 0 {
		t.Fatalf("checkpoint header: sweep %q shard %s universe %x", f.Sweep, f.Shard, f.UniverseHash)
	}

	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(values) {
		t.Fatalf("loaded %d points, want %d", r.Len(), len(values))
	}
	for id, want := range values {
		got, ok := r.Lookup(id)
		if !ok {
			t.Fatalf("point %q missing after reload", id)
		}
		// Bit-exact round trip, including NaN (hence the bits comparison).
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("point %q = %g after reload, want %g exactly", id, got, want)
		}
	}
	if _, ok := r.Lookup("ex1/fifo/h=2/x=0.25"); ok {
		t.Fatal("Lookup invented a point")
	}
}

func TestCheckpointMissingFileIsEmpty(t *testing.T) {
	c, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.frag"))
	if err != nil {
		t.Fatalf("missing checkpoint should load empty, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("missing checkpoint has %d points", c.Len())
	}
}

// headJSONCheckpoint is a checkpoint as the JSON writer of earlier
// builds left it. The format is no longer read.
const headJSONCheckpoint = `{
  "version": 1,
  "points": {
    "ex1/fifo/h=2/x=0.2": "123.456789012345"
  }
}
`

func TestCheckpointRejectsForeignFiles(t *testing.T) {
	// Damage is salvaged (see the salvage tests); what still hard-fails
	// is a file we cannot even identify as one of our checkpoints.
	dir := t.TempDir()
	shardFrag, err := WriteFragment(dir, testFragment(testUniverse(6), Spec{0, 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(shardFrag)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"garbage":         "{not json",
		"json-checkpoint": headJSONCheckpoint,
		"version":         "deltasched-fragment v2 sweep=checkpoint shard=0/1 universe=0000000000000000\n",
		"not-object":      `[1, 2, 3]`,
		"headless":        "\"p\" 1\n",
		"shard-fragment":  string(raw),
		"torn-shard":      string(raw[:len(raw)*2/3]),
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".frag")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("%s: unidentifiable checkpoint loaded without error", name)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error does not name the file: %v", name, err)
		}
	}
}

// TestCheckpointSalvagesTruncation simulates the classic half-written
// checkpoint: a valid file cut off mid-record must resume with its
// valid prefix instead of failing the whole run.
func TestCheckpointSalvagesTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	c := NewCheckpoint(path)
	for i := 0; i < 20; i++ {
		c.Record(fmt.Sprintf("ex1/fifo/h=2/x=0.%02d", i), float64(i)*1.5)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("truncated checkpoint not salvaged: %v", err)
	}
	n, salvaged := r.Salvage()
	if !salvaged {
		t.Fatal("salvaged checkpoint not marked")
	}
	if n == 0 || n >= 20 {
		t.Fatalf("salvaged %d of 20 records, want a proper prefix", n)
	}
	// The salvaged records are the first n in file (ID) order, each with
	// its original value.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("ex1/fifo/h=2/x=0.%02d", i)
		v, ok := r.Lookup(id)
		if ok != (i < n) {
			t.Fatalf("record %q served = %v, want a prefix of %d records", id, ok, n)
		}
		if ok && v != float64(i)*1.5 {
			t.Fatalf("salvaged record %q = %g, want %g", id, v, float64(i)*1.5)
		}
	}
}

// TestCheckpointSalvagesBadValues drops individually damaged records
// of a torn file (no footer) and keeps the rest.
func TestCheckpointSalvagesBadValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	content := "deltasched-fragment v1 sweep=checkpoint shard=0/1 universe=0000000000000000\n" +
		"\"alsogood\" NaN\n" +
		"\"bad\" not-a-float\n" +
		"\"good\" 2.5\n" +
		"\"torn\" 3.7"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("damaged-value checkpoint not salvaged: %v", err)
	}
	n, salvaged := r.Salvage()
	if !salvaged || n != 2 {
		t.Fatalf("Salvage() = %d, %v; want 2, true", n, salvaged)
	}
	if v, ok := r.Lookup("good"); !ok || v != 2.5 {
		t.Fatalf("good record lost: %v, %v", v, ok)
	}
	if _, ok := r.Lookup("bad"); ok {
		t.Fatal("damaged record served")
	}
	if _, ok := r.Lookup("torn"); ok {
		t.Fatal("record without its newline served")
	}
	if v, ok := r.Lookup("alsogood"); !ok || !math.IsNaN(v) {
		t.Fatal("NaN record lost in salvage")
	}
}

// TestCheckpointAlteredAfterWriteKeepsNothing: a complete file (intact
// footer) that fails its checksum was changed after it was written, so
// no record in it can be trusted — not even the ones that look fine.
func TestCheckpointAlteredAfterWriteKeepsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	c := NewCheckpoint(path)
	c.Record("p", 2.5)
	c.Record("q", 3.25)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	altered := strings.Replace(string(raw), "\"p\" 2.5\n", "\"p\" 2.6\n", 1)
	if altered == string(raw) {
		t.Fatalf("record line not found in:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(altered), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("altered checkpoint failed the load: %v", err)
	}
	if n, salvaged := r.Salvage(); !salvaged || n != 0 {
		t.Fatalf("Salvage() = %d, %v; want 0, true", n, salvaged)
	}
	for _, id := range []string{"p", "q"} {
		if v, ok := r.Lookup(id); ok {
			t.Fatalf("altered checkpoint served %q = %g", id, v)
		}
	}
}

// TestCheckpointCleanLoadIsNotSalvaged pins the flag's meaning.
func TestCheckpointCleanLoadIsNotSalvaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	c := NewCheckpoint(path)
	c.Record("p", 1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, salvaged := r.Salvage(); salvaged || n != 1 {
		t.Fatalf("clean load marked salvaged (%d, %v)", n, salvaged)
	}
}

// TestCheckpointSaveLeavesNoTempDebris: the crash-safe writer must not
// litter the directory on the happy path, and repeated flushes from two
// checkpoints sharing a path must not clobber each other's temp files.
func TestCheckpointSaveLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "check.frag")
	a, b := NewCheckpoint(path), NewCheckpoint(path)
	for i := 0; i < 5; i++ {
		a.Record(fmt.Sprintf("a%d", i), float64(i))
		b.Record(fmt.Sprintf("b%d", i), float64(i))
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "check.frag" {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
	// The surviving file is whole and loadable.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointConcurrentRecord: sweep workers record and look up
// points concurrently while flushes run under the lock; every record
// lands on disk.
func TestCheckpointConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "check.frag")
	c := NewCheckpoint(path)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("w%d/p%d", w, i)
				c.Record(id, float64(i))
				if v, ok := c.Lookup(id); !ok || v != float64(i) {
					t.Errorf("%s: Lookup = %g, %v", id, v, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 200 {
		t.Fatalf("reloaded %d records, want 200", r.Len())
	}
}

func TestCheckpointNilIsInert(t *testing.T) {
	var c *Checkpoint
	c.Record("x", 1)
	if _, ok := c.Lookup("x"); ok {
		t.Fatal("nil checkpoint returned a point")
	}
	if n, salvaged := c.Salvage(); n != 0 || salvaged {
		t.Fatal("nil checkpoint reports a salvage")
	}
	if c.Len() != 0 || c.Flush() != nil {
		t.Fatal("nil checkpoint is not inert")
	}
}

func TestCheckpointSurfacesWriteErrors(t *testing.T) {
	c := NewCheckpoint(filepath.Join(t.TempDir(), "no-such-dir", "check.frag"))
	c.Record("p", 1)
	if err := c.Flush(); err == nil {
		t.Fatal("flush into a missing directory reported no error")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unhelpful flush error: %v", err)
	}
}
