package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

// ParMapCtx is the context-aware, panic-isolating worker pool behind
// every sweep: it applies fn to every input with at most `workers`
// concurrent goroutines (GOMAXPROCS when workers <= 0), preserving input
// order in the result.
//
// The batch fails fast: the first error or panic in fn(i) becomes an
// *ItemError carrying the input index (and, for panics, the recovered
// value and stack), no further inputs start, and the ItemError is the
// batch error. A point deadline is the caller's: shard.Retry runs a
// deadlined attempt on its own goroutine.
//
// Cancelling ctx stops the batch promptly: no new items start, and the
// batch error is ctx.Err(). Items already inside fn finish (or notice the
// ctx themselves); their results are kept. fn receives the batch context
// and should consult it in long-running computations.
//
// onDone, when non-nil, receives the number of successfully completed
// inputs and the batch size after each success. Calls are serialized and
// monotonic in the completion count.
func ParMapCtx[T, R any](ctx context.Context, workers int, in []T, fn func(context.Context, T) (R, error), onDone func(done, total int)) ([]R, error) {
	if fn == nil {
		return nil, errors.New("experiments: ParMapCtx needs a function")
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
		return out, ctx.Err()
	}

	// run stores fn(ctx, in[idx]) in out[idx], converting an error or a
	// panic into an *ItemError (with the recovered value and stack).
	run := func(idx int) (ie *ItemError) {
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
		v, err := fn(ctx, in[idx])
		if err != nil {
			return &ItemError{Index: idx, Err: err}
		}
		out[idx] = v
		return nil
	}

	if workers <= 1 {
		for i := range in {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			if ie := run(i); ie != nil {
				return out, ie
			}
			if onDone != nil {
				onDone(i+1, len(in))
			}
		}
		return out, ctx.Err()
	}

	// The first failure stops the batch through stopCtx: the feeder and
	// idle workers watch it, while items already inside fn keep ctx.
	stopCtx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		jobs  = make(chan int)
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *ItemError
		done  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if stopCtx.Err() != nil {
					continue // drain without working
				}
				ie := run(idx)
				mu.Lock()
				if ie == nil {
					done++
					if onDone != nil {
						onDone(done, len(in))
					}
				} else if first == nil {
					first = ie
					stop()
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range in {
		select {
		case jobs <- i:
		case <-stopCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return out, err
	}
	if first != nil {
		return out, first
	}
	return out, nil
}
