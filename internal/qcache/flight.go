package qcache

import (
	"context"
	"sync"
)

// Flight shares work between concurrent callers as Cache shares it
// between successive ones: the first caller of a key, the leader, runs
// the function; callers of the same key arriving before it returns,
// followers, wait and share its result, error included. Nothing
// outlives the call. What may be shared is the caller's decision, made
// in the key: the mediator keys a query's shared phase on (requester,
// query) and runs every per-requester control outside it, per caller.
// The zero value is ready to use.
type Flight[T any] struct {
	mu    sync.Mutex // around map bookkeeping only, never across fn
	calls map[string]*call[T]
}

type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Do runs fn once per concurrent burst of callers of key and reports
// whether this caller led. joined is told the role before fn runs or
// the wait begins. A follower whose ctx ends stops waiting and returns
// the context's error; the leader is not disturbed.
func (f *Flight[T]) Do(ctx context.Context, key string, joined func(leader bool), fn func() (T, error)) (val T, leader bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		joined(false)
		select {
		case <-c.done:
			return c.val, false, c.err
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
	}
	c := &call[T]{done: make(chan struct{})}
	if f.calls == nil {
		f.calls = map[string]*call[T]{}
	}
	f.calls[key] = c
	f.mu.Unlock()
	joined(true)
	c.val, c.err = fn()
	f.mu.Lock()
	// Delete only our own entry: after a Forget the key may already
	// belong to a younger flight.
	if f.calls[key] == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	close(c.done)
	return c.val, true, c.err
}

// Forget detaches every flight in progress: callers from now on start
// fresh executions and never join one that began before the call.
// Leaders still running complete the followers they already have.
func (f *Flight[T]) Forget() {
	f.mu.Lock()
	f.calls = nil
	f.mu.Unlock()
}
