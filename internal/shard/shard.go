// Package shard makes multi-process sweeps fault tolerant and exact.
// A sweep's deterministic point universe (internal/scenario point IDs)
// is partitioned across N shards; each worker evaluates one shard —
// either a fixed -shard i/N assignment or a lease-based work-claiming
// loop that survives worker crashes — and writes its results as an
// integrity-checked checkpoint fragment. A merge validates every
// fragment (footer checksum, universe hash, partition membership),
// detects overlap and gaps against the expected point-ID universe, and
// reassembles a result set byte-identical to a single-process run. The
// fragment is the repository's one persistence format: an unsharded
// run's -checkpoint file is a Checkpoint, a fragment of shard 0 of 1
// that one process rewrites as its points complete.
//
// The exactness story leans on invariants older PRs established: point
// IDs are deterministic (PR 2), values are exact decimal float strings,
// and the partition is a pure function of (universe length, shard spec)
// — so any interleaving of workers, crashes, retries and reclaims
// converges to the same merged bytes.
//
// Failure handling is layered:
//
//   - Retry wraps one point evaluation with per-attempt deadlines and
//     exponential backoff, retrying transient failures (panics, deadline
//     expiries) and refusing permanent ones (ErrBadConfig,
//     ErrInfeasible) per the internal/core error taxonomy. It backs the
//     unsharded runner too.
//   - Fragments are written atomically (unique temp + fsync + rename)
//     and carry a footer checksum, so a torn or corrupted file is
//     detected, never merged. A damaged checkpoint is salvaged instead:
//     a torn one keeps its intact records, an altered one none.
//   - Leases expire: a crashed worker's shard becomes reclaimable after
//     the TTL, with at-least-once semantics — two workers racing the
//     same shard both write the same bytes.
//
// The deterministic fault injectors in internal/faults plug into the
// worker and fragment writer so chaos tests can drive every failure
// mode on a schedule.
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec names one shard of an N-way partition: Index in [0, N).
type Spec struct {
	Index int
	N     int
}

// ParseSpec parses the -shard flag form "i/N".
func ParseSpec(s string) (Spec, error) {
	iStr, nStr, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: bad spec %q (want i/N, e.g. 0/3)", s)
	}
	i, err1 := strconv.Atoi(iStr)
	n, err2 := strconv.Atoi(nStr)
	if err1 != nil || err2 != nil {
		return Spec{}, fmt.Errorf("shard: bad spec %q (want i/N, e.g. 0/3)", s)
	}
	sp := Spec{Index: i, N: n}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate checks 0 <= Index < N.
func (sp Spec) Validate() error {
	if sp.N < 1 {
		return fmt.Errorf("shard: spec %s: need at least one shard", sp)
	}
	if sp.Index < 0 || sp.Index >= sp.N {
		return fmt.Errorf("shard: spec %s: index out of range [0,%d)", sp, sp.N)
	}
	return nil
}

// String renders the flag spelling "i/N".
func (sp Spec) String() string {
	return strconv.Itoa(sp.Index) + "/" + strconv.Itoa(sp.N)
}

// PartitionIndices returns the universe indices shard sp owns:
// round-robin assignment (idx mod N == Index), which balances sweep
// grids whose cost varies smoothly along the enumeration. The partition
// is a pure function of (total, sp) — the merge relies on that to check
// membership of every fragment record.
func PartitionIndices(total int, sp Spec) []int {
	if total <= 0 {
		return nil
	}
	out := make([]int, 0, (total-sp.Index+sp.N-1)/sp.N)
	for idx := sp.Index; idx < total; idx += sp.N {
		out = append(out, idx)
	}
	return out
}

// sanitize maps a sweep name onto the filesystem-safe token used in
// fragment and lease file names.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
