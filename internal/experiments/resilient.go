package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// ErrPanic tags ItemErrors produced by a panicking item function, so
// callers can distinguish "the computation blew up" from "the computation
// returned an error" with errors.Is.
var ErrPanic = errors.New("experiments: panic in item function")

// ItemError attributes one failed input of a parallel batch: which input
// (by index), what went wrong, and — when the item function panicked —
// the recovered value and the goroutine stack at the panic site. Hours of
// sweep work should never be un-attributable to the point that killed it.
type ItemError struct {
	Index     int    // position of the failed input in the batch
	Err       error  // the item's error; wraps ErrPanic for panics
	Recovered any    // value recovered from the panic, nil otherwise
	Stack     []byte // stack captured at the panic site, nil otherwise
}

// Error implements error: "experiments: input <index>: <cause>".
func (e *ItemError) Error() string {
	return fmt.Sprintf("experiments: input %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *ItemError) Unwrap() error { return e.Err }

// FailPolicy selects how a batch reacts to a failing item.
type FailPolicy int

const (
	// FailFast aborts the batch on the first item error or panic:
	// remaining inputs are skipped and the failure is returned as the
	// batch error. A panic fails its item like an error does; it never
	// kills the process.
	FailFast FailPolicy = iota
	// KeepGoing records failing items and completes the rest of the
	// batch; the batch error stays nil (unless the context is cancelled)
	// and the failures are returned as the ItemError slice.
	KeepGoing
)

// RunOptions tunes a ParMapCtx batch. The zero value is fail-fast, with
// no per-item deadline and no progress hook.
type RunOptions struct {
	Policy FailPolicy
	// OnDone, when non-nil, receives the number of successfully completed
	// inputs and the batch size after each success. Calls are serialized
	// and monotonic in the completion count.
	OnDone func(done, total int)
	// ItemTimeout, when positive, bounds each item: fn runs under a
	// context that expires after ItemTimeout, and an item still running at
	// the deadline fails with an *ItemError wrapping
	// context.DeadlineExceeded. The item's goroutine is abandoned (fn is
	// expected to notice its context and return); the batch moves on.
	ItemTimeout time.Duration
}

// ParMapCtx is the context-aware, panic-isolating worker pool behind
// every sweep: it applies fn to every input with at most `workers`
// concurrent goroutines (GOMAXPROCS when workers <= 0), preserving input
// order in the result.
//
// Failure handling is per-item: an error or panic in fn(i) becomes an
// *ItemError carrying the input index (and, for panics, the recovered
// value and stack). Under FailFast the first failure aborts the batch and
// is returned as the batch error; under KeepGoing the batch runs to
// completion, failed slots keep the zero value, and the failures come
// back in the (index-sorted) ItemError slice with a nil batch error.
//
// Cancelling ctx stops the batch promptly: no new items start, and the
// batch error is ctx.Err(). Items already inside fn finish (or notice the
// ctx themselves); their results are kept. fn receives the batch context
// and should consult it in long-running computations.
func ParMapCtx[T, R any](ctx context.Context, workers int, in []T, fn func(context.Context, T) (R, error), opt RunOptions) ([]R, []*ItemError, error) {
	if fn == nil {
		return nil, nil, badBatch("ParMapCtx needs a function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(in) {
		workers = len(in)
	}
	out := make([]R, len(in))
	if len(in) == 0 {
		return out, nil, ctx.Err()
	}

	// run executes fn(ictx, in[idx]) on the caller's goroutine, converting
	// a panic into an *ItemError with the recovered value and stack.
	run := func(ictx context.Context, idx int) (r R, ie *ItemError) {
		defer func() {
			if rec := recover(); rec != nil {
				ie = &ItemError{
					Index:     idx,
					Err:       fmt.Errorf("%w: %v", ErrPanic, rec),
					Recovered: rec,
					Stack:     debug.Stack(),
				}
			}
		}()
		v, err := fn(ictx, in[idx])
		if err != nil {
			return r, &ItemError{Index: idx, Err: err}
		}
		return v, nil
	}

	call := func(idx int) (R, *ItemError) {
		if opt.ItemTimeout <= 0 {
			return run(ctx, idx)
		}
		ictx, cancel := context.WithTimeout(ctx, opt.ItemTimeout)
		defer cancel()
		type itemResult struct {
			r  R
			ie *ItemError
		}
		ch := make(chan itemResult, 1) // buffered: an abandoned item must not leak its goroutine
		go func() {
			r, ie := run(ictx, idx)
			ch <- itemResult{r, ie}
		}()
		select {
		case res := <-ch:
			return res.r, res.ie
		case <-ictx.Done():
			var zero R
			err := ictx.Err()
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				err = fmt.Errorf("item exceeded %v: %w", opt.ItemTimeout, err)
			}
			return zero, &ItemError{Index: idx, Err: err}
		}
	}

	if workers <= 1 {
		var fails []*ItemError
		done := 0
		for i := range in {
			if err := ctx.Err(); err != nil {
				return out, fails, err
			}
			r, ie := call(i)
			if ie != nil {
				fails = append(fails, ie)
				if opt.Policy == FailFast {
					return out, fails, ie
				}
				continue
			}
			out[i] = r
			done++
			if opt.OnDone != nil {
				opt.OnDone(done, len(in))
			}
		}
		return out, fails, ctx.Err()
	}

	var (
		jobs    = make(chan int)
		wg      sync.WaitGroup
		mu      sync.Mutex
		fails   []*ItemError
		first   *ItemError
		aborted bool
		done    int
	)
	record := func(ie *ItemError) {
		mu.Lock()
		defer mu.Unlock()
		fails = append(fails, ie)
		if first == nil {
			first = ie
		}
		if opt.Policy == FailFast {
			aborted = true
		}
	}
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return aborted
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil || stopped() {
					continue // drain without working
				}
				r, ie := call(idx)
				if ie != nil {
					record(ie)
					continue
				}
				out[idx] = r
				mu.Lock()
				done++
				if opt.OnDone != nil {
					opt.OnDone(done, len(in))
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range in {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	sort.Slice(fails, func(i, j int) bool { return fails[i].Index < fails[j].Index })
	if err := ctx.Err(); err != nil {
		return out, fails, err
	}
	if opt.Policy == FailFast && first != nil {
		return out, fails, first
	}
	return out, fails, nil
}

func badBatch(msg string) error {
	return fmt.Errorf("experiments: %s", msg)
}
