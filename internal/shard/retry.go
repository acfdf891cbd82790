package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
	"deltasched/internal/obs"
)

// RetryPolicy bounds one point evaluation: how many attempts, how each
// attempt is deadlined, and how long to back off between attempts. The
// zero value means one attempt, no deadline — exactly the historical
// behavior.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (first try included);
	// values below 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Zero disables sleeping (tests).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff; zero means 30*BaseDelay.
	MaxDelay time.Duration
	// AttemptTimeout deadlines each attempt's context; zero means no
	// per-attempt deadline.
	AttemptTimeout time.Duration
	// OnRetry observes each scheduled retry (metrics, logging).
	OnRetry func(key string, attempt int, err error)
}

func retriesTotal() *obs.Counter {
	return obs.Default.Counter("shard_retries_total",
		"point evaluations retried after a transient failure", nil)
}

// Retryable classifies an evaluation failure per the PR 2 error
// taxonomy: panics (experiments.ErrPanic) and per-attempt deadline
// expiries are transient and worth retrying; ErrBadConfig,
// ErrInfeasible and ErrNoConvergence are deterministic verdicts that
// retrying cannot change; cancellation is the caller's decision, not a
// failure. Unknown errors default to permanent — silently re-running an
// unclassified failure is how a bug becomes a statistic.
func Retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, core.ErrBadConfig),
		errors.Is(err, core.ErrInfeasible),
		errors.Is(err, core.ErrNoConvergence):
		return false
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, experiments.ErrPanic):
		return true
	default:
		return false
	}
}

// Retry runs fn under the policy: each attempt gets its own deadlined
// context and panic isolation (a panic becomes an error wrapping
// experiments.ErrPanic, carrying the stack in its message); transient
// failures back off exponentially with deterministic jitter derived
// from key and retry, so a replayed run sleeps the same schedule.
//
// A deadlined attempt runs on its own goroutine and is abandoned at the
// deadline, so an fn that ignores its context cannot hold the caller
// past it; the abandoned goroutine runs on until fn returns, and its
// result is dropped. An attempt without a deadline runs on the calling
// goroutine.
func Retry[T any](ctx context.Context, pol RetryPolicy, key string, fn func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		v, err := runAttempt(ctx, pol.AttemptTimeout, fn)
		if err == nil {
			return v, nil
		}
		last = err
		if !Retryable(err) || a == attempts-1 {
			break
		}
		retriesTotal().Inc()
		if pol.OnRetry != nil {
			pol.OnRetry(key, a+1, err)
		}
		if err := sleepCtx(ctx, backoff(pol, key, a)); err != nil {
			return zero, err
		}
	}
	return zero, last
}

// runAttempt executes one deadlined, panic-isolated attempt.
func runAttempt[T any](ctx context.Context, timeout time.Duration, fn func(ctx context.Context) (T, error)) (T, error) {
	if timeout <= 0 {
		return isolate(ctx, fn)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1) // buffered: an abandoned attempt must not leak its goroutine
	go func() {
		v, err := isolate(actx, fn)
		ch <- result{v, err}
	}()
	var r result
	select {
	case r = <-ch:
	case <-actx.Done():
		r.err = actx.Err()
	}
	if r.err != nil && errors.Is(r.err, context.DeadlineExceeded) && ctx.Err() == nil {
		r.err = fmt.Errorf("attempt exceeded %v: %w", timeout, r.err)
	}
	return r.v, r.err
}

// isolate calls fn, turning a panic into an error wrapping
// experiments.ErrPanic.
func isolate[T any](ctx context.Context, fn func(ctx context.Context) (T, error)) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v\n%s", experiments.ErrPanic, rec, debug.Stack())
		}
	}()
	return fn(ctx)
}

// backoff is BaseDelay doubled per retry, capped at MaxDelay, with
// deterministic jitter in [d/2, d] derived from (key, retry) — the
// spread desynchronizes workers hammering a shared resource without
// sacrificing replayability.
func backoff(pol RetryPolicy, key string, retry int) time.Duration {
	if pol.BaseDelay <= 0 {
		return 0
	}
	max := pol.MaxDelay
	if max <= 0 {
		max = 30 * pol.BaseDelay
	}
	d := pol.BaseDelay << uint(retry)
	if d <= 0 || d > max { // <=0 catches shift overflow
		d = max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key, retry)
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h.Sum64()%uint64(half+1)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
