package shard

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// MergeStats summarizes a successful merge.
type MergeStats struct {
	Fragments int // fragment files validated and merged
	Records   int // point records recovered (== len(universe))
}

// MergeDir reassembles a sweep from its checkpoint fragments in dir and
// proves the result complete and exact against the expected point-ID
// universe:
//
//   - every fragment is integrity-checked (footer checksum) and must
//     carry the sweep's universe hash and a consistent shard count;
//   - every record must belong to its fragment's partition (membership
//     by universe index), appear in the universe, and appear exactly
//     once across all fragments (overlap detection);
//   - every universe ID must be covered (gap detection, reported with
//     the missing shard files when whole shards are absent).
//
// On success the returned map serves every point of the sweep, so a
// merge run reproduces the single-process output byte for byte.
func MergeDir(dir, sweep string, universe []string) (map[string]string, MergeStats, error) {
	var stats MergeStats
	uh := UniverseHash(universe)
	index := make(map[string]int, len(universe))
	for i, id := range universe {
		index[id] = i
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, stats, fmt.Errorf("shard: reading fragment directory: %w", err)
	}
	prefix := sanitize(sweep) + "-"
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".frag") {
			paths = append(paths, dir+string(os.PathSeparator)+name)
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, stats, fmt.Errorf("shard: no fragments for sweep %q in %s", sweep, dir)
	}

	merged := make(map[string]string, len(universe))
	n := 0 // shard count, fixed by the first fragment
	seenShards := make(map[int]bool)
	for _, path := range paths {
		f, err := ReadFragment(path)
		if err != nil {
			return nil, stats, fmt.Errorf("shard: merge rejected %s: %w", path, err)
		}
		if f.Sweep != sanitize(sweep) {
			return nil, stats, fmt.Errorf("shard: %s belongs to sweep %q, merging %q", path, f.Sweep, sweep)
		}
		if f.UniverseHash != uh {
			return nil, stats, fmt.Errorf("shard: %s was computed against a different point universe (hash %016x, want %016x) — same flags on every shard?", path, f.UniverseHash, uh)
		}
		if n == 0 {
			n = f.Shard.N
		} else if f.Shard.N != n {
			return nil, stats, fmt.Errorf("shard: %s is 1 of %d shards, other fragments use %d", path, f.Shard.N, n)
		}
		if seenShards[f.Shard.Index] {
			return nil, stats, fmt.Errorf("shard: two fragments for shard %s of sweep %q", f.Shard, sweep)
		}
		seenShards[f.Shard.Index] = true

		for id, val := range f.Records {
			idx, ok := index[id]
			if !ok {
				return nil, stats, fmt.Errorf("shard: %s carries point %q that is not in the expected universe", path, id)
			}
			if idx%n != f.Shard.Index {
				return nil, stats, fmt.Errorf("shard: %s carries point %q (index %d), which belongs to shard %d/%d", path, id, idx, idx%n, n)
			}
			if _, dup := merged[id]; dup {
				return nil, stats, fmt.Errorf("shard: point %q appears in more than one fragment (overlap)", id)
			}
			merged[id] = val
		}
		stats.Fragments++
		fragmentsMerged(sweep).Inc()
	}

	if len(merged) != len(universe) {
		var missingIDs []string
		for _, id := range universe {
			if _, ok := merged[id]; !ok {
				missingIDs = append(missingIDs, id)
				if len(missingIDs) == 4 {
					break
				}
			}
		}
		var missingShards []string
		for k := 0; k < n; k++ {
			if !seenShards[k] {
				missingShards = append(missingShards, Spec{k, n}.String())
			}
		}
		msg := fmt.Sprintf("shard: merge incomplete: %d of %d points missing (first: %s)",
			len(universe)-len(merged), len(universe), strings.Join(missingIDs, ", "))
		if len(missingShards) > 0 {
			msg += fmt.Sprintf("; no fragment for shard(s) %s", strings.Join(missingShards, ", "))
		}
		return nil, stats, fmt.Errorf("%s", msg)
	}
	stats.Records = len(merged)
	return merged, stats, nil
}
