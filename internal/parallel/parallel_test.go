package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachZeroItems(t *testing.T) {
	called := false
	for _, workers := range []int{0, 1, 8} {
		if err := ForEach(context.Background(), 0, workers, func(int) error {
			called = true
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	if called {
		t.Fatal("fn must not run for n=0")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var counts [n]atomic.Int32
		if err := ForEach(context.Background(), n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachWorkersExceedItems(t *testing.T) {
	// More workers than items must neither deadlock nor duplicate work.
	var ran atomic.Int32
	if err := ForEach(context.Background(), 3, 50, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran = %d, want 3", ran.Load())
	}
}

func TestForEachDeterministicOutputOrdering(t *testing.T) {
	const n = 500
	serial, err := Map(context.Background(), n, 1, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), n, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], par[i])
		}
	}
}

func TestForEachFirstErrorStopsDispatch(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), 10_000, 4, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if got := ran.Load(); got == 10_000 {
		t.Fatal("error did not stop dispatch")
	}
}

func TestForEachContextCancelMidIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 100_000, 4, func(i int) error {
		if ran.Add(1) == 10 {
			cancel() // cancel from inside a worker, mid-iteration
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 100_000 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

func TestForEachSerialPathHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 10, 1, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled context still ran %d items", ran.Load())
	}
}

func TestForEachPanicPropagatesWithoutDeadlock(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic was swallowed")
		}
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "kernel exploded") {
			t.Fatalf("recovered %v, want wrapped worker panic", v)
		}
		if !strings.Contains(s, "parallel_test.go") {
			t.Errorf("panic should carry the worker stack: %q", s)
		}
	}()
	_ = ForEach(context.Background(), 1000, 4, func(i int) error {
		if i == 3 {
			panic("kernel exploded")
		}
		return nil
	})
	t.Fatal("unreachable: ForEach must re-panic")
}

func TestMapError(t *testing.T) {
	if _, err := Map(context.Background(), 10, 4, func(i int) (int, error) {
		if i == 7 {
			return 0, fmt.Errorf("bad index %d", i)
		}
		return i, nil
	}); err == nil {
		t.Fatal("want error")
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to at least 1")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit worker counts pass through")
	}
}

func TestChunkSizeClamps(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{10, 4, 16},    // below min: clamp up
		{1024, 4, 256}, // above max: clamp down
		{400, 4, 100},  // in range: one chunk per worker
		{1, 1, 16},     // tiny input still min-clamped
	}
	for _, c := range cases {
		if got := ChunkSize(c.n, c.workers); got != c.want {
			t.Errorf("ChunkSize(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestForEachChunkCoversEveryIndexOnce(t *testing.T) {
	for _, chunk := range []int{0, 1, 7, 16, 1000} {
		const n = 237
		var hit [n]atomic.Int64
		err := ForEachChunk(context.Background(), n, 8, chunk, func(lo, hi int) error {
			if lo >= hi || hi > n {
				return fmt.Errorf("bad range [%d, %d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				hit[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		for i := range hit {
			if hit[i].Load() != 1 {
				t.Fatalf("chunk %d: index %d ran %d times", chunk, i, hit[i].Load())
			}
		}
	}
}

func TestForEachChunkPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachChunk(context.Background(), 100, 4, 10, func(lo, hi int) error {
		if lo == 50 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Errorf("err = %v, want boom", err)
	}
}

// forEachAllocBound caps a ForEach call that fans out, whatever its width:
// its dispatch state is one object and the workers' function value one
// more. Measured 2; a closure, Once or atomic per call again reads 9.
const forEachAllocBound = 2

func TestForEachAllocations(t *testing.T) {
	fn := func(int) error { return nil }
	for _, workers := range []int{2, 4, 16} {
		got := testing.AllocsPerRun(100, func() {
			if err := ForEach(context.Background(), 64, workers, fn); err != nil {
				t.Fatal(err)
			}
		})
		if got > forEachAllocBound {
			t.Errorf("workers=%d: ForEach allocates %.1f objects per call, want <= %d", workers, got, forEachAllocBound)
		}
	}
}
