package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("x: %w", core.ErrBadConfig), false},
		{fmt.Errorf("x: %w", core.ErrInfeasible), false},
		{fmt.Errorf("x: %w", core.ErrNoConvergence), false},
		{errors.New("mystery"), false},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("attempt exceeded 5ms: %w", context.DeadlineExceeded), true},
		{fmt.Errorf("%w: boom", experiments.ErrPanic), true},
		{&experiments.ItemError{Index: 3, Err: fmt.Errorf("%w: boom", experiments.ErrPanic)}, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryRecoversTransientPanic(t *testing.T) {
	calls := 0
	v, err := Retry(context.Background(), RetryPolicy{MaxAttempts: 3}, "p", func(context.Context) (float64, error) {
		calls++
		if calls < 3 {
			panic("transient")
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Retry = %v, %v; want 42, nil", v, err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	calls := 0
	_, err := Retry(context.Background(), RetryPolicy{MaxAttempts: 2}, "p", func(context.Context) (int, error) {
		calls++
		panic("always")
	})
	if err == nil || !errors.Is(err, experiments.ErrPanic) {
		t.Fatalf("exhausted retry returned %v, want ErrPanic", err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2", calls)
	}
}

func TestRetryDoesNotRetryPermanentErrors(t *testing.T) {
	calls := 0
	_, err := Retry(context.Background(), RetryPolicy{MaxAttempts: 5}, "p", func(context.Context) (int, error) {
		calls++
		return 0, fmt.Errorf("x: %w", core.ErrBadConfig)
	})
	if !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("got %v", err)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
}

func TestRetryAttemptTimeoutRescuesHungPoint(t *testing.T) {
	var calls atomic.Int32 // deadlined attempts run on their own goroutines
	onRetryKeys := 0
	pol := RetryPolicy{
		MaxAttempts:    2,
		AttemptTimeout: 30 * time.Millisecond,
		OnRetry:        func(key string, attempt int, err error) { onRetryKeys++ },
	}
	v, err := Retry(context.Background(), pol, "hung", func(ctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hung point honours its context
			return 0, ctx.Err()
		}
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("Retry = %v, %v; want 7, nil", v, err)
	}
	if onRetryKeys != 1 {
		t.Fatalf("OnRetry fired %d times, want 1", onRetryKeys)
	}
}

// TestRetryAttemptTimeoutAbandonsStuckPoint: a point that ignores its
// context is abandoned at the attempt deadline, with or without a retry
// budget, instead of holding the caller until it returns.
func TestRetryAttemptTimeoutAbandonsStuckPoint(t *testing.T) {
	for _, attempts := range []int{1, 2} {
		var calls atomic.Int32
		start := time.Now()
		pol := RetryPolicy{MaxAttempts: attempts, AttemptTimeout: 50 * time.Millisecond}
		_, err := Retry(context.Background(), pol, "stuck", func(ctx context.Context) (int, error) {
			calls.Add(1)
			select {
			case <-time.After(5 * time.Second):
			case <-ctx.Done():
				<-time.After(5 * time.Second)
			}
			return 1, nil
		})
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("attempts=%d: stuck point held the caller for %v", attempts, elapsed)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempts=%d: got %v, want DeadlineExceeded", attempts, err)
		}
		if n := calls.Load(); n != int32(attempts) {
			t.Fatalf("attempts=%d: fn called %d times", attempts, n)
		}
	}
}

func TestRetryHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Retry(ctx, RetryPolicy{MaxAttempts: 3}, "p", func(context.Context) (int, error) {
		calls++
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
	if calls != 0 {
		t.Fatal("cancelled retry still ran the attempt")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	pol := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for retry := 0; retry < 10; retry++ {
		a := backoff(pol, "key", retry)
		b := backoff(pol, "key", retry)
		if a != b {
			t.Fatalf("backoff not deterministic at retry %d: %v vs %v", retry, a, b)
		}
		if a < pol.BaseDelay/2 || a > pol.MaxDelay {
			t.Fatalf("backoff %v at retry %d out of [base/2, max]", a, retry)
		}
	}
	if d := backoff(pol, "other-key", 2); d == backoff(pol, "key", 2) {
		t.Log("jitter collision across keys (allowed, just unlikely)")
	}
	if backoff(RetryPolicy{}, "k", 0) != 0 {
		t.Fatal("zero base delay must not sleep")
	}
}
