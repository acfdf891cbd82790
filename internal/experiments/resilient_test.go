package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParMapCtxCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	in := make([]int, 64)
	for i := range in {
		in[i] = i
	}

	done := make(chan error, 1)
	go func() {
		_, err := ParMapCtx(ctx, 4, in, func(ctx context.Context, x int) (int, error) {
			if started.Add(1) == 4 {
				close(release) // all workers busy: now cancel
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
				return x, nil
			}
		}, nil)
		done <- err
	}()

	<-release
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled batch did not return promptly")
	}
	if n := started.Load(); n > 8 {
		t.Fatalf("%d items started after cancellation of a 4-worker batch", n)
	}
}

func TestParMapCtxPanicBecomesItemError(t *testing.T) {
	in := []int{0, 1, 2, 3}
	_, err := ParMapCtx(context.Background(), 2, in, func(_ context.Context, x int) (int, error) {
		if x == 2 {
			panic(fmt.Sprintf("boom at %d", x))
		}
		return x, nil
	}, nil)
	if err == nil {
		t.Fatal("panicking item did not fail the batch")
	}
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("batch error %T is not an *ItemError", err)
	}
	if ie.Index != 2 {
		t.Fatalf("ItemError.Index = %d, want 2", ie.Index)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panic ItemError does not wrap ErrPanic: %v", err)
	}
	if ie.Recovered != "boom at 2" {
		t.Fatalf("Recovered = %v, want the panic value", ie.Recovered)
	}
	if !strings.Contains(string(ie.Stack), "resilient_test") {
		t.Fatalf("stack does not point at the panic site:\n%s", ie.Stack)
	}
}

func TestParMapCtxSequentialPanicRecovery(t *testing.T) {
	var ran []int
	_, err := ParMapCtx(context.Background(), 1, []int{0, 1, 2}, func(_ context.Context, x int) (int, error) {
		ran = append(ran, x)
		if x == 1 {
			panic("sequential boom")
		}
		return x, nil
	}, nil)
	var ie *ItemError
	if !errors.As(err, &ie) || ie.Index != 1 || !errors.Is(err, ErrPanic) {
		t.Fatalf("batch error = %v, want an ErrPanic ItemError at index 1", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran inputs %v; the batch must stop at the panic", ran)
	}
}

func TestParMapCtxNilContextAndEmptyInput(t *testing.T) {
	out, err := ParMapCtx[int, int](nil, 4, nil, func(_ context.Context, x int) (int, error) {
		return x, nil
	}, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

func TestItemErrorMessageFormat(t *testing.T) {
	ie := &ItemError{Index: 7, Err: fmt.Errorf("kaput")}
	if got := ie.Error(); got != "experiments: input 7: kaput" {
		t.Fatalf("Error() = %q", got)
	}
	if !errors.Is(ie, ie.Err) {
		t.Fatal("ItemError does not unwrap to its inner error")
	}
}
