package shard

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Checkpoint persists completed sweep points so an interrupted campaign
// can resume without recomputing them. On disk it is a fragment of
// shard 0 of 1 under the sweep name "checkpoint" with universe hash 0:
// one file serves every sweep of a run and is never merged. Points are
// keyed by deterministic IDs (example, scheduler, grid coordinates) and
// values are stored as exact decimal float64 encodings (strconv
// 'g'/-1), so a resumed sweep reproduces the uninterrupted output bit
// for bit — including NaN points that mark infeasible configurations.
//
// All methods are safe for concurrent use and nil-safe: a nil
// *Checkpoint looks up nothing and records nothing, so sweeps thread
// one through unconditionally. Record flushes to disk at most every
// flushEvery, through the atomic fragment writer; call Flush before
// exiting to persist the tail.
type Checkpoint struct {
	mu       sync.Mutex
	frag     Fragment
	path     string
	dirty    bool
	lastSave time.Time
	saveErr  error // first flush failure, surfaced by Flush
	salvaged bool  // loaded from a damaged file (see Salvage)
}

const flushEvery = 200 * time.Millisecond

// NewCheckpoint starts an empty checkpoint that will persist to path.
// Any existing file at path is ignored and overwritten on the first
// flush (use LoadCheckpoint to resume from it instead).
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{
		frag: Fragment{Sweep: "checkpoint", Shard: Spec{0, 1}, Records: make(map[string]string)},
		path: path,
	}
}

// LoadCheckpoint opens the checkpoint at path for resuming: completed
// points recorded there are served from cache. A missing file yields an
// empty checkpoint (resuming a run that never started is a fresh run).
//
// A file that fails the fragment's integrity checks is salvaged and
// marked (see Salvage), so the runner can warn and count the recovery;
// the lost records are recomputed. Its header must still parse. A file
// whose footer line is intact was altered after it was written and
// keeps nothing. A torn file (no intact footer) keeps every
// newline-terminated record line that parses. Any other file, the JSON
// checkpoint of earlier builds or a shard's fragment included, is an
// error: there the safe reading is "this is not our checkpoint".
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c := NewCheckpoint(path)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading checkpoint: %w", err)
	}
	f, err := decodeFragment(raw)
	if err != nil {
		f, err = salvage(raw)
		c.salvaged = true
	}
	if err != nil {
		return nil, fmt.Errorf("shard: %s is not a %s checkpoint (%v); JSON checkpoints of earlier builds are not read", path, fragmentMagic, err)
	}
	if f.Sweep != c.frag.Sweep || f.Shard != c.frag.Shard || f.UniverseHash != 0 {
		return nil, fmt.Errorf("shard: %s is the fragment of sweep %s shard %s, not a checkpoint", path, f.Sweep, f.Shard)
	}
	c.frag.Records = f.Records
	return c, nil
}

// salvage recovers a fragment that failed decodeFragment, under
// LoadCheckpoint's rule.
func salvage(raw []byte) (*Fragment, error) {
	lines := strings.Split(string(raw), "\n")
	lines = lines[:len(lines)-1] // a torn write's last line is partial
	if len(lines) == 0 {
		return nil, errors.New("no header line")
	}
	f, err := parseHeader(lines[0])
	if err != nil {
		return nil, err
	}
	f.Records = make(map[string]string)
	if _, _, _, err := parseFooter(lines[len(lines)-1]); err == nil {
		return f, nil // complete, then altered: trust nothing
	}
	for _, line := range lines[1:] {
		if id, val, err := parseRecord(line); err == nil {
			f.Records[id] = val
		}
	}
	return f, nil
}

// Salvage reports whether this checkpoint was recovered from a damaged
// file, and how many records survived. The runner surfaces it as a
// warning and a run-report counter.
func (c *Checkpoint) Salvage() (records int, salvaged bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frag.Records), c.salvaged
}

// Lookup returns the recorded value of a point, if present as a float
// (not an `m1:` summary).
func (c *Checkpoint) Lookup(id string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.frag.Records[id]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// Record stores a completed point and flushes to disk if the last flush
// is older than flushEvery. Flush errors are remembered and surfaced by
// the next Flush call rather than interrupting the sweep.
func (c *Checkpoint) Record(id string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frag.Records[id] = strconv.FormatFloat(v, 'g', -1, 64)
	c.dirty = true
	if time.Since(c.lastSave) >= flushEvery {
		c.saveLocked()
	}
}

// Len returns the number of recorded points.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frag.Records)
}

// Flush writes any unsaved points to disk and returns the first write
// error since the previous Flush. Nil-safe.
func (c *Checkpoint) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty {
		c.saveLocked()
	}
	err := c.saveErr
	c.saveErr = nil
	return err
}

// saveLocked writes the checkpoint through the fragment writer; the
// caller holds c.mu.
func (c *Checkpoint) saveLocked() {
	c.lastSave = time.Now()
	if err := writeFragment(c.path, &c.frag, nil); err != nil {
		if c.saveErr == nil {
			c.saveErr = fmt.Errorf("shard: saving checkpoint %s: %w", c.path, err)
		}
		return
	}
	c.dirty = false
}
