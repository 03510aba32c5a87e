package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachCtxCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var counts [n]atomic.Int32
		err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestForEachCtxCanceled checks that a pre-canceled context stops the
// fan-out before any (sequential) or almost any (parallel) work runs, and
// that ctx.Err() is returned.
func TestForEachCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForEachCtx(ctx, 1000, workers, func(int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if c := calls.Load(); c != 0 {
			t.Fatalf("workers=%d: %d fn calls ran after cancellation", workers, c)
		}
	}
}

// TestForEachCtxMidwayCancel cancels from inside fn and checks the
// remaining indices are never started.
func TestForEachCtxMidwayCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := ForEachCtx(ctx, 1000, workers, func(int) error {
			if calls.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Workers that already pulled an index may finish it, but the bulk
		// of the range must never start.
		if c := calls.Load(); int(c) >= 1000 {
			t.Fatalf("workers=%d: all %d indices ran despite cancellation", workers, c)
		}
	}
}

// TestForEachCtxFirstError checks that a fn error stops the fan-out and is
// returned.
func TestForEachCtxFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForEachCtx(context.Background(), 1000, workers, func(i int) error {
			if calls.Add(1) == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if c := calls.Load(); int(c) >= 1000 {
			t.Fatalf("workers=%d: all %d indices ran despite error", workers, c)
		}
	}
}

func TestZeroed(t *testing.T) {
	buf := []int{1, 2, 3, 4}
	got := Zeroed(buf, 3)
	if len(got) != 3 || &got[0] != &buf[0] || got[0]+got[1]+got[2] != 0 {
		t.Fatalf("Zeroed(4-cap, 3) = %v on a new array: %v", got, &got[0] != &buf[0])
	}
	if buf[3] != 4 {
		t.Fatal("Zeroed cleared past the requested length")
	}
	if got = Zeroed(buf, 9); len(got) != 9 || got[8] != 0 {
		t.Fatalf("Zeroed(4-cap, 9) = %v", got)
	}
	if got = Zeroed[int](nil, 0); len(got) != 0 {
		t.Fatalf("Zeroed(nil, 0) = %v", got)
	}
}
