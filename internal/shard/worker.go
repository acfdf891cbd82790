package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"deltasched/internal/experiments"
	"deltasched/internal/faults"
)

// EvalFunc computes one point of the sweep: the universe index, the
// point ID, and the value that will be recorded in the fragment (as an
// exact decimal string). Transient failures (panics, deadline expiries)
// are retried under the worker's policy; permanent ones abort the
// shard.
type EvalFunc func(ctx context.Context, idx int, id string) (float64, error)

// Worker evaluates shards of one sweep and writes their fragments. The
// same Worker backs both execution modes: RunShard for a fixed -shard
// i/N assignment, Claim for the lease-based work-claiming loop. It is
// also the seam the chaos tests drive directly — the fault injector
// hooks live here and in the fragment writer, nowhere else.
type Worker struct {
	Dir      string   // fragment + lease directory
	Sweep    string   // sweep name (fragment namespace)
	N        int      // total shard count
	Universe []string // full point-ID enumeration, in order
	Eval     EvalFunc

	Retry    RetryPolicy
	Workers  int              // parallel evaluations per shard (<=0: GOMAXPROCS)
	Faults   *faults.Injector // nil in production
	LeaseTTL time.Duration    // claim mode: lease expiry (0: 5m)

	// OnProgress observes (done, total) over the current shard's
	// partition; OnShard observes shard lifecycle events for logging.
	OnProgress func(done, total int)
	OnShard    func(sp Spec, event string)
}

func (w *Worker) note(sp Spec, event string) {
	if w.OnShard != nil {
		w.OnShard(sp, event)
	}
}

// RunShard evaluates shard sp's partition of the universe and writes
// its fragment. Point evaluations run under the retry policy with
// panic isolation; the written fragment is read back and validated, and
// rewritten once if damaged (this is what heals an injected partial
// write or corruption, and a torn filesystem write in real life).
func (w *Worker) RunShard(ctx context.Context, sp Spec) (map[string]string, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	idxs := PartitionIndices(len(w.Universe), sp)
	vals := make([]string, len(idxs))
	_, err := experiments.ParMapCtx(ctx, w.Workers, seq(len(idxs)), func(ctx context.Context, j int) (struct{}, error) {
		idx := idxs[j]
		id := w.Universe[idx]
		v, err := Retry(ctx, w.Retry, id, func(actx context.Context) (float64, error) {
			if w.Faults.Fire(faults.KillSelf, idx) {
				faults.Die()
			}
			if w.Faults.Fire(faults.PointPanic, idx) {
				panic(fmt.Sprintf("faults: injected panic at point %d (%s)", idx, id))
			}
			if w.Faults.Fire(faults.PointHang, idx) {
				<-actx.Done() // a hung point: only the attempt deadline saves us
				return 0, actx.Err()
			}
			return w.Eval(actx, idx, id)
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("point %s: %w", id, err)
		}
		vals[j] = strconv.FormatFloat(v, 'g', -1, 64)
		return struct{}{}, nil
	}, w.OnProgress)
	if err != nil {
		return nil, err
	}

	records := make(map[string]string, len(idxs))
	for j, idx := range idxs {
		records[w.Universe[idx]] = vals[j]
	}
	frag := &Fragment{Sweep: w.Sweep, Shard: sp, UniverseHash: UniverseHash(w.Universe), Records: records}
	path, err := WriteFragment(w.Dir, frag, w.Faults)
	if err != nil {
		return nil, err
	}
	if _, verr := ReadFragment(path); verr != nil {
		w.note(sp, "fragment damaged on write, rewriting")
		if path, err = WriteFragment(w.Dir, frag, w.Faults); err != nil {
			return nil, err
		}
		if _, verr := ReadFragment(path); verr != nil {
			return nil, fmt.Errorf("shard: fragment still invalid after rewrite: %w", verr)
		}
	}
	w.note(sp, "fragment written")
	return records, nil
}

// Claim is the work-claiming loop: scan the sweep's shards, claim one
// whose fragment is missing or damaged and whose lease is free (or
// expired — reclaiming a crashed worker's shard), run it, release, and
// repeat until every shard has a valid fragment. When everything left
// is leased by other live workers, Claim waits and rescans, so it
// returns only when the whole sweep is done (or ctx is cancelled).
func (w *Worker) Claim(ctx context.Context) error {
	if w.N < 1 {
		return fmt.Errorf("shard: claim mode needs at least one shard, got %d", w.N)
	}
	ttl := w.LeaseTTL
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	for {
		allDone, claimed := true, false
		for k := 0; k < w.N; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sp := Spec{Index: k, N: w.N}
			if ValidFragment(FragmentPath(w.Dir, w.Sweep, sp)) {
				continue
			}
			allDone = false
			lease, err := AcquireLease(w.Dir, w.Sweep, sp, ttl)
			if errors.Is(err, ErrLeaseHeld) {
				continue
			}
			if err != nil {
				return err
			}
			claimed = true
			w.note(sp, "claimed")
			_, rerr := w.RunShard(ctx, sp)
			lease.Release()
			if rerr != nil {
				return rerr
			}
		}
		if allDone {
			return nil
		}
		if !claimed {
			// Everything unfinished is leased by someone else: wait for
			// completion or lease expiry, then rescan.
			if err := sleepCtx(ctx, waitInterval(ttl)); err != nil {
				return err
			}
		}
	}
}

// waitInterval paces the claim loop's rescans while other workers hold
// all remaining shards: a quarter TTL, clamped to [10ms, 500ms] so
// tests with tiny TTLs stay fast and production does not spin.
func waitInterval(ttl time.Duration) time.Duration {
	d := ttl / 4
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
