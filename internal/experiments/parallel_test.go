package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParMapPreservesOrder(t *testing.T) {
	in := make([]int, 50)
	for i := range in {
		in[i] = i
	}
	out, err := ParMapCtx(context.Background(), 8, in,
		func(_ context.Context, x int) (int, error) { return x * x, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParMapEmptyAndSequential(t *testing.T) {
	ctx := context.Background()
	out, err := ParMapCtx(ctx, 4, nil, func(_ context.Context, x int) (int, error) { return x, nil }, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
	out, err = ParMapCtx(ctx, 1, []int{1, 2, 3}, func(_ context.Context, x int) (int, error) { return x + 1, nil }, nil)
	if err != nil || out[2] != 4 {
		t.Fatalf("sequential path: out=%v err=%v", out, err)
	}
	if _, err := ParMapCtx[int, int](ctx, 2, []int{1}, nil, nil); err == nil {
		t.Fatal("nil function must be rejected")
	}
}

func TestParMapPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := ParMapCtx(context.Background(), 4, []int{0, 1, 2, 3, 4, 5}, func(_ context.Context, x int) (int, error) {
		if x == 3 {
			return 0, sentinel
		}
		return x, nil
	}, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected wrapped sentinel, got %v", err)
	}
}

func TestParMapBoundsConcurrency(t *testing.T) {
	var cur, peak int64
	_, err := ParMapCtx(context.Background(), 3, make([]int, 60), func(context.Context, int) (int, error) {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		atomic.AddInt64(&cur, -1)
		return 0, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > 3 {
		t.Fatalf("concurrency peak %d exceeds the worker cap 3", p)
	}
}

func TestParMapProgressHook(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		in := make([]int, 20)
		_, err := ParMapCtx(context.Background(), workers, in,
			func(_ context.Context, x int) (int, error) { return x, nil },
			func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if total != 20 {
					t.Errorf("total = %d, want 20", total)
				}
				seen = append(seen, done)
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 20 {
			t.Fatalf("workers=%d: %d progress calls, want 20", workers, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: progress not monotonic: %v", workers, seen)
			}
		}
	}
}

func TestParMapProgressSkipsFailedBatch(t *testing.T) {
	sentinel := errors.New("boom")
	calls := 0
	var mu sync.Mutex
	_, err := ParMapCtx(context.Background(), 4, []int{0, 1, 2, 3}, func(_ context.Context, x int) (int, error) {
		if x == 0 {
			return 0, sentinel
		}
		return x, nil
	}, func(done, total int) {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected sentinel, got %v", err)
	}
	if calls > 3 {
		t.Fatalf("failed input must not count as progress (%d calls)", calls)
	}
}

func TestParMapMatchesSequentialOnBounds(t *testing.T) {
	// Determinism: the same figure points computed in parallel and
	// sequentially must agree bit-for-bit.
	s := PaperSetup()
	hs := []int{1, 2, 3, 4}
	nc := s.FlowCount(0.4) / 2
	f := func(_ context.Context, h int) (float64, error) { return s.Bound(FIFO, h, nc, nc) }
	seq, err := ParMapCtx(context.Background(), 1, hs, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParMapCtx(context.Background(), 4, hs, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}
