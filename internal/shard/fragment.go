package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"deltasched/internal/faults"
	"deltasched/internal/measure"
	"deltasched/internal/obs"
)

// ErrFragmentIntegrity tags fragment read failures caused by a damaged
// file (truncation, corruption, checksum mismatch) rather than a
// missing one, so callers can distinguish "rewrite this shard" from
// "this shard never ran". Use errors.Is.
var ErrFragmentIntegrity = errors.New("shard: fragment integrity")

// Fragment is one shard's checkpoint fragment, and as shard 0 of 1 the
// resume checkpoint (see Checkpoint): the sweep it belongs to, the
// shard assignment, a hash of the full point-ID universe it was
// partitioned from, and the completed records. A record value is either
// an exact decimal float string or an `m1:`-prefixed
// measure.EncodeSummary string; the reader accepts summaries so sketch
// sweeps can one day checkpoint whole mergeable delay summaries per
// point, but no shipped path writes one yet.
type Fragment struct {
	Sweep        string
	Shard        Spec
	UniverseHash uint64
	Records      map[string]string
}

const fragmentMagic = "deltasched-fragment v1"

// FragmentPath names shard sp's fragment for a sweep inside dir.
func FragmentPath(dir, sweep string, sp Spec) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%dof%d.frag", sanitize(sweep), sp.Index, sp.N))
}

// UniverseHash fingerprints a point-ID universe (FNV-64a over the IDs
// in enumeration order). Fragments carry it so a merge can refuse
// fragments computed against a different config — a shard run without
// -quick, say — before confusing overlap/gap errors appear.
func UniverseHash(ids []string) uint64 {
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// encode renders f as the text of its file, into one buffer sized from
// the record lengths: the header, one `"id" value` line per record
// sorted by point ID, and a footer with the record count, the record
// block's byte length and its FNV-64a checksum. Sorting makes the bytes,
// and so the checksum, independent of completion order.
func (f *Fragment) encode() []byte {
	ids := make([]string, 0, len(f.Records))
	size := 160 + len(f.Sweep) // header and footer
	for id, v := range f.Records {
		ids = append(ids, id)
		size += len(id) + len(v) + 4 // two quotes, a space, a newline
	}
	sort.Strings(ids)
	buf := make([]byte, 0, size)
	buf = fmt.Appendf(buf, "%s sweep=%s shard=%s universe=%016x\n",
		fragmentMagic, sanitize(f.Sweep), f.Shard, f.UniverseHash)
	start := len(buf)
	for _, id := range ids {
		buf = strconv.AppendQuote(buf, id)
		buf = append(buf, ' ')
		buf = append(buf, f.Records[id]...)
		buf = append(buf, '\n')
	}
	h := fnv.New64a()
	h.Write(buf[start:])
	return fmt.Appendf(buf, "footer records=%d bytes=%d fnv64a=%016x\n", len(ids), len(buf)-start, h.Sum64())
}

// WriteFragment persists f into dir atomically (see writeFragment) and
// returns its path, FragmentPath.
//
// The injector hooks simulate write failures deterministically:
// PartialWrite@shardIndex truncates the content before the rename (a
// torn write that made it to the final name), CorruptFragment@shardIndex
// flips one byte after a clean write. Production passes nil.
func WriteFragment(dir string, f *Fragment, inj *faults.Injector) (string, error) {
	if err := f.Shard.Validate(); err != nil {
		return "", err
	}
	path := FragmentPath(dir, f.Sweep, f.Shard)
	if err := writeFragment(path, f, inj); err != nil {
		return "", err
	}
	return path, nil
}

// writeFragment writes f to path: unique temp file in the same
// directory, fsync, rename. A crash at any instant leaves either the
// old complete file or the new complete one, and concurrent writers to
// one path cannot clobber each other's temp file. The footer lets
// readers detect truncation and corruption all the same.
func writeFragment(path string, f *Fragment, inj *faults.Injector) error {
	data := f.encode()
	if inj.Fire(faults.PartialWrite, f.Shard.Index) {
		data = data[:len(data)*2/3]
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("shard: creating fragment temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("shard: writing fragment: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("shard: syncing fragment: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("shard: closing fragment temp: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("shard: fragment permissions: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("shard: publishing fragment: %w", err)
	}

	if inj.Fire(faults.CorruptFragment, f.Shard.Index) {
		corruptFile(path)
	}
	return nil
}

// corruptFile flips one byte in the middle of a file (the deterministic
// CorruptFragment injection). Errors are ignored: a fault injector that
// fails to injure the file just yields a passing run.
func corruptFile(path string) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		return
	}
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)
}

// ReadFragment loads and fully validates a fragment: magic header,
// well-formed records, and a footer whose record count, byte length and
// checksum match the record block as read. Damage of any kind returns
// an error wrapping ErrFragmentIntegrity; a missing file returns the
// underlying not-exist error unwrapped, so os.IsNotExist still works.
func ReadFragment(path string) (*Fragment, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := decodeFragment(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrFragmentIntegrity, path, err)
	}
	return f, nil
}

// decodeFragment parses and validates the bytes of a fragment file.
func decodeFragment(raw []byte) (*Fragment, error) {
	text := string(raw)
	if !strings.HasSuffix(text, "\n") {
		return nil, errors.New("no trailing newline (truncated)")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) < 2 {
		return nil, errors.New("missing header or footer")
	}
	header, footer, recs := lines[0], lines[len(lines)-1], lines[1:len(lines)-1]
	f, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	wantRecords, wantBytes, wantSum, err := parseFooter(footer)
	if err != nil {
		return nil, err
	}
	f.Records = make(map[string]string, len(recs))
	for _, line := range recs {
		id, val, err := parseRecord(line)
		if err != nil {
			return nil, err
		}
		if _, dup := f.Records[id]; dup {
			return nil, fmt.Errorf("record %q appears twice", id)
		}
		f.Records[id] = val
	}

	body := text[len(header)+1 : len(text)-len(footer)-1]
	h := fnv.New64a()
	h.Write([]byte(body))
	switch {
	case len(f.Records) != wantRecords:
		return nil, fmt.Errorf("footer says %d records, file has %d", wantRecords, len(f.Records))
	case len(body) != wantBytes:
		return nil, fmt.Errorf("footer says %d record bytes, file has %d", wantBytes, len(body))
	case h.Sum64() != wantSum:
		return nil, fmt.Errorf("checksum mismatch: footer %016x, computed %016x", wantSum, h.Sum64())
	}
	return f, nil
}

// parseHeader reads the header line into a Fragment without records.
func parseHeader(line string) (*Fragment, error) {
	if !strings.HasPrefix(line, fragmentMagic+" ") {
		return nil, fmt.Errorf("bad magic %q", firstN(line, 40))
	}
	f := &Fragment{}
	var shardStr string
	_, err := fmt.Sscanf(line[len(fragmentMagic)+1:], "sweep=%s shard=%s universe=%x", &f.Sweep, &shardStr, &f.UniverseHash)
	if err != nil {
		return nil, fmt.Errorf("bad header: %v", err)
	}
	if f.Shard, err = ParseSpec(shardStr); err != nil {
		return nil, fmt.Errorf("bad shard field: %v", err)
	}
	return f, nil
}

// parseFooter reads the footer line: record count, record block byte
// length, checksum.
func parseFooter(line string) (records, bytes int, sum uint64, err error) {
	if _, err := fmt.Sscanf(line, "footer records=%d bytes=%d fnv64a=%x", &records, &bytes, &sum); err != nil {
		return 0, 0, 0, fmt.Errorf("bad footer %q (truncated?)", firstN(line, 40))
	}
	return records, bytes, sum, nil
}

// parseRecord reads one `"id" value` line. The value must be an exact
// decimal float or a well-formed `m1:` summary encoding.
func parseRecord(line string) (id, val string, err error) {
	sep := strings.LastIndexByte(line, ' ')
	if sep < 0 {
		return "", "", fmt.Errorf("bad record line %q", firstN(line, 40))
	}
	if id, err = strconv.Unquote(line[:sep]); err != nil {
		return "", "", fmt.Errorf("bad record id in %q", firstN(line, 40))
	}
	val = line[sep+1:]
	if measure.IsEncodedSummary(val) {
		// Sketch-backend sweeps checkpoint whole delay summaries, not
		// scalar bounds; the encoding is space-free so the last-space
		// record split above still isolates it.
		if _, err := measure.DecodeSummary(val); err != nil {
			return "", "", fmt.Errorf("record %q has bad summary: %v", id, err)
		}
	} else if _, err := strconv.ParseFloat(val, 64); err != nil {
		return "", "", fmt.Errorf("record %q has bad value %q", id, val)
	}
	return id, val, nil
}

// ValidFragment reports whether a complete, integrity-checked fragment
// exists at path.
func ValidFragment(path string) bool {
	_, err := ReadFragment(path)
	return err == nil
}

func firstN(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// fragmentsMerged counts fragments accepted by a merge (idempotent
// registry lookup; shared across calls).
func fragmentsMerged() *obs.Counter {
	return obs.Default.Counter("shard_fragments_merged_total",
		"integrity-checked checkpoint fragments accepted by a merge", nil)
}
