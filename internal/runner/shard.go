package runner

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/faults"
	"deltasched/internal/obs"
	"deltasched/internal/scenario"
	"deltasched/internal/shard"
)

// shardMode is the resolved execution mode of the shard flag group.
type shardMode int

const (
	shardOff   shardMode = iota
	shardFixed           // -shard i/N: evaluate one fixed shard, emit its fragment
	shardClaim           // -claim N: lease-claim shards until the sweep is done
	shardMerge           // -merge: validate + merge existing fragments, no evaluation
)

// registerShardFlags adds the sharded-sweep flag group and the point
// resilience knobs shared with plain runs. Called from New.
func (a *App) registerShardFlags() {
	a.shardStr = a.FS.String("shard", "", "evaluate only shard i/N of each sweep and write its result fragment to -shard-dir (e.g. -shard 0/3)")
	a.claimN = a.FS.Int("claim", 0, "work-claiming mode: lease and evaluate shards of an N-way split until every fragment in -shard-dir exists")
	a.mergeFlag = a.FS.Bool("merge", false, "merge the fragments in -shard-dir into full results (no evaluation); fails on gaps, overlaps or damaged fragments")
	a.shardDir = a.FS.String("shard-dir", "", "directory for shard fragments and leases (required by -shard/-claim/-merge)")
	a.leaseTTL = a.FS.Duration("lease-ttl", 5*time.Minute, "claim mode: lease expiry; a shard whose lease is this stale is reclaimed")
	a.pointTimeout = a.FS.Duration("point-timeout", 0, "deadline of each attempt at a point (0 = none); an attempt still running at the deadline is abandoned and fails as a timeout")
	a.pointRetries = a.FS.Int("point-retries", 0, "retries per point after a transient failure (panic or point timeout); deterministic verdicts are never retried")
	a.retryBase = a.FS.Duration("retry-base", 250*time.Millisecond, "backoff before the first point retry (doubles per retry, deterministically jittered)")
	a.faultsStr = a.FS.String("faults", "", "fault injection schedule for chaos testing, e.g. panic@3,partial@0 (default: $"+faults.EnvVar+")")
}

// initShard resolves the shard flag group after parsing: resilience
// knobs inside their domain, exactly one mode, a parsed fault schedule
// only where a shard worker can fire it, a directory to share, and no
// checkpoint (fragments are the checkpoint of a sharded sweep). Called
// from Main before the session starts.
func (a *App) initShard() error {
	// Out-of-domain values would otherwise be read as one attempt, no
	// deadline, no backoff and the default lease TTL.
	switch {
	case *a.pointRetries < 0:
		return fmt.Errorf("%w: -point-retries wants at least 0, got %d", core.ErrBadConfig, *a.pointRetries)
	case *a.pointTimeout < 0:
		return fmt.Errorf("%w: -point-timeout wants at least 0 (0 = none), got %v", core.ErrBadConfig, *a.pointTimeout)
	case *a.retryBase < 0:
		return fmt.Errorf("%w: -retry-base wants at least 0, got %v", core.ErrBadConfig, *a.retryBase)
	case *a.leaseTTL <= 0:
		return fmt.Errorf("%w: -lease-ttl wants a positive duration, got %v", core.ErrBadConfig, *a.leaseTTL)
	}
	modes := 0
	if *a.shardStr != "" {
		sp, err := shard.ParseSpec(*a.shardStr)
		if err != nil {
			return fmt.Errorf("%w: %v", core.ErrBadConfig, err)
		}
		a.shardSpec = sp
		a.shardMode = shardFixed
		modes++
	}
	if *a.claimN != 0 {
		if *a.claimN < 1 {
			return fmt.Errorf("%w: -claim wants a positive shard count, got %d", core.ErrBadConfig, *a.claimN)
		}
		a.shardMode = shardClaim
		modes++
	}
	if *a.mergeFlag {
		a.shardMode = shardMerge
		modes++
	}
	if modes > 1 {
		return fmt.Errorf("%w: -shard, -claim and -merge are mutually exclusive", core.ErrBadConfig)
	}
	inj, err := faults.Parse(*a.faultsStr)
	if err != nil {
		return fmt.Errorf("%w: -faults: %v", core.ErrBadConfig, err)
	}
	if inj == nil {
		if inj, err = faults.FromEnv(); err != nil {
			return fmt.Errorf("%w: $%s: %v", core.ErrBadConfig, faults.EnvVar, err)
		}
	}
	// Faults fire only inside a shard worker; anywhere else a schedule
	// would be accepted and never fire.
	if inj != nil && a.shardMode != shardFixed && a.shardMode != shardClaim {
		return fmt.Errorf("%w: a fault schedule (-faults or $%s) needs -shard or -claim", core.ErrBadConfig, faults.EnvVar)
	}
	if a.shardMode != shardOff {
		if *a.shardDir == "" {
			return fmt.Errorf("%w: sharded runs need -shard-dir", core.ErrBadConfig)
		}
		if *a.checkpoint != "" {
			return fmt.Errorf("%w: -checkpoint does not combine with sharded runs; fragments in -shard-dir are the checkpoint", core.ErrBadConfig)
		}
		if err := os.MkdirAll(*a.shardDir, 0o755); err != nil {
			return fmt.Errorf("creating -shard-dir: %w", err)
		}
	}
	a.injector = inj
	return nil
}

// FragmentOnly reports whether this run produces shard fragments rather
// than results: under -shard i/N the process sees only its partition,
// so commands skip rendering tables/CSVs and a later -merge run (or any
// claim worker) emits the real outputs.
func (a *App) FragmentOnly() bool { return a.shardMode == shardFixed }

// retryPolicy builds the point retry policy from the resilience flags.
func (a *App) retryPolicy() shard.RetryPolicy {
	return shard.RetryPolicy{
		MaxAttempts:    *a.pointRetries + 1,
		BaseDelay:      *a.retryBase,
		AttemptTimeout: *a.pointTimeout,
		OnRetry: func(key string, attempt int, err error) {
			fmt.Fprintf(os.Stderr, "%s: retrying point %s (attempt %d failed: %v)\n", a.Name, key, attempt, err)
		},
	}
}

// runSharded executes one sweep under the active shard mode. The
// caller (Run) has already enumerated the points and verified the
// checkpointable-sweep gate, so every process derives the same ID
// universe — the property the fragment universe hash pins.
func (a *App) runSharded(sc scenario.Scenario, cfg scenario.Config, opt RunOpt, pts []scenario.Point) ([]scenario.Point, []scenario.Result, error) {
	universe := scenario.IDs(pts)
	pr := a.Sess.NewProgress(opt.Label)
	eval := a.pointEval(sc, cfg)
	runCtx, runSpan := obs.StartSpan(a.Ctx, opt.Stage)
	defer runSpan.End()

	w := &shard.Worker{
		Dir:      *a.shardDir,
		Sweep:    opt.Sweep,
		Universe: universe,
		Retry:    a.retryPolicy(),
		Faults:   a.injector,
		LeaseTTL: *a.leaseTTL,
		Eval: func(ctx context.Context, idx int, _ string) (float64, error) {
			res, err := eval(ctx, pts[idx])
			return res.Analytic, err
		},
		OnProgress: func(done, total int) {
			a.Sess.Report.ObserveSweep(opt.Sweep, done, total)
			pr.Observe(done, total)
		},
		OnShard: func(sp shard.Spec, event string) {
			fmt.Fprintf(os.Stderr, "%s: %s: shard %s: %s\n", a.Name, opt.Sweep, sp, event)
		},
	}

	var err error
	switch a.shardMode {
	case shardFixed:
		w.N = a.shardSpec.N
		_, err = w.RunShard(runCtx, a.shardSpec)
		if err == nil {
			pr.Finish()
			// Fragment-only: the caller must not render partial results.
			return pts, nil, nil
		}
	case shardClaim:
		w.N = *a.claimN
		err = w.Claim(runCtx)
	case shardMerge:
		// No evaluation: the fragments carry every value.
	default:
		err = fmt.Errorf("runner: unknown shard mode %d", a.shardMode)
	}
	if err != nil {
		reason := "failed"
		if obs.Interrupted(err) {
			reason = "interrupted"
		}
		pr.Abort(reason)
		return nil, nil, err
	}

	// Claim mode reaches here only once the whole sweep is complete, and
	// merge mode requires it: reassemble the fragments into results
	// byte-identical to an unsharded run.
	merged, _, err := shard.MergeDir(*a.shardDir, opt.Sweep, universe)
	if err != nil {
		pr.Abort("failed")
		return nil, nil, err
	}
	rs := make([]scenario.Result, len(pts))
	for i, id := range universe {
		v, perr := strconv.ParseFloat(merged[id], 64)
		if perr != nil {
			pr.Abort("failed")
			return nil, nil, fmt.Errorf("runner: merged fragment value %q for point %s: %w", merged[id], id, perr)
		}
		rs[i] = scenario.Result{Analytic: v}
	}
	a.Sess.Report.ObserveSweep(opt.Sweep, len(pts), len(pts))
	pr.Finish()
	return pts, rs, nil
}
