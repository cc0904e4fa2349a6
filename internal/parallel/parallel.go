// Package parallel is the shared bounded worker pool under every
// compute kernel with per-item independent work: PSI blinding and
// exponentiation (one 2048-bit modexp per item), the NLP solver's
// multi-starts, and Bloom-filter q-gram encoding for private linkage.
//
// The contract is deliberately narrow. ForEach(ctx, n, workers, fn)
// runs fn(0..n-1) across at most `workers` goroutines and returns when
// every index has run (or the work was abandoned). Determinism is the
// caller's: fn(i) writes only to slot i of a pre-sized output, so the
// result is bit-identical to the serial loop regardless of scheduling.
// workers <= 0 means GOMAXPROCS; workers == 1 runs inline on the
// calling goroutine with no pool overhead, which keeps the serial
// baselines the width tests compare against honest.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 select GOMAXPROCS
// (the "as fast as the hardware allows" default), anything else is
// returned unchanged. Kernels call this so a zero-value config works.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// panicError carries a recovered worker panic across the pool boundary
// so it can be re-raised on the calling goroutine instead of killing
// the process from inside the pool (or deadlocking the dispatcher).
type panicError struct {
	value any
	stack []byte
}

func (p *panicError) String() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.value, p.stack)
}

// ForEach runs fn(i) for every i in [0, n) using at most `workers`
// concurrent goroutines (GOMAXPROCS when workers <= 0).
//
//   - Output ordering is deterministic by construction: fn receives its
//     index and must write results only to that index.
//   - The first error stops the dispatch of further indices and is
//     returned; indices already running complete.
//   - Context cancellation stops dispatch likewise and returns ctx.Err().
//   - A panic inside fn is recovered, the pool drains, and the panic is
//     re-raised on the caller's goroutine with the worker's stack — a
//     crashing worker must crash the caller, not deadlock it.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	if workers == 1 {
		// Inline serial path: identical semantics, zero pool overhead.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	p := &pool{ctx: ctx, n: n, fn: fn}
	p.wg.Add(workers)
	worker := p.worker
	for w := 0; w < workers; w++ {
		go worker()
	}
	p.wg.Wait()

	if p.pan != nil {
		panic(p.pan.String())
	}
	if p.err != nil {
		return p.err
	}
	return ctx.Err()
}

// pool is one ForEach call's dispatch state, in one allocation.
type pool struct {
	ctx     context.Context
	n       int
	fn      func(i int) error
	next    atomic.Int64 // next undispatched index
	stopped atomic.Bool  // set on first error/cancel/panic
	wg      sync.WaitGroup

	mu  sync.Mutex // guards the first error and the first panic
	err error
	pan *panicError
}

func (p *pool) worker() {
	defer p.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			p.mu.Lock()
			if p.pan == nil {
				p.pan = &panicError{value: v, stack: stack()}
			}
			p.mu.Unlock()
			p.stopped.Store(true)
		}
	}()
	for {
		if p.stopped.Load() || p.ctx.Err() != nil {
			return
		}
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := p.fn(i); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			p.stopped.Store(true)
			return
		}
	}
}

// ChunkSize picks a contiguous batch width for n independent items
// fanned across `workers`: roughly one chunk per worker, clamped to
// [16, 256] so tiny inputs do not pay one dispatch (and one cache-lock
// round trip) per item while huge inputs still split finely enough to
// rebalance across stragglers.
func ChunkSize(n, workers int) int {
	w := Workers(workers)
	c := (n + w - 1) / w
	if c < 16 {
		c = 16
	}
	if c > 256 {
		c = 256
	}
	return c
}

// ForEachChunk runs fn(lo, hi) over contiguous half-open ranges
// covering [0, n), at most `workers` ranges concurrently. chunk <= 0
// selects ChunkSize(n, workers). It is the batched sibling of ForEach:
// kernels whose per-item work is cheap relative to dispatch (or that
// want to amortize a lock acquisition over a run of items) process a
// slice per task instead of an index per task. Error, cancellation and
// panic semantics are ForEach's; determinism is likewise the caller's
// (fn writes only to [lo, hi) of a pre-sized output).
func ForEachChunk(ctx context.Context, n, workers, chunk int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = ChunkSize(n, workers)
	}
	nchunks := (n + chunk - 1) / chunk
	return ForEach(ctx, nchunks, workers, func(c int) error {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}

// Map applies fn to every index of a length-n input and collects the
// results in order: out[i] = fn(i). It is ForEach plus the pre-sized
// output slice every kernel otherwise writes by hand.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
