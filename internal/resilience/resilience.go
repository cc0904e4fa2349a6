// Package resilience is the fault-tolerance layer of the mediation
// engine. The paper's premise is that sources are autonomous — which in
// deployment means slow, flaky, and sometimes dead — so every remote
// interaction, at the mediator → source hop and the router → shard hop
// alike, is one guarded Call: a per-callee circuit Breaker (consecutive
// failures open the circuit; a half-open probe re-admits a recovered
// callee) around a Policy (retry with exponential backoff and
// deterministic jitter, an overall deadline). One outcome rule says what
// an error means to both. WrapEndpoint applies the guarded call to a
// source.Endpoint, and the Chaos wrapper injects deterministic faults
// for tests; both are a source.Wrap.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Policy configures retries and the deadline of one guarded call. The
// zero value is usable: sensible defaults are applied by every method.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 2s).
	MaxBackoff time.Duration
	// Timeout bounds the whole call across attempts and backoffs
	// (0 = none). An attempt still running when it passes is abandoned,
	// even when the callee ignores its context.
	Timeout time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// outcome is what a call's error says about the callee.
type outcome int

const (
	// answered: no error, or the callee's own answer — an error that says
	// Retryable() false (a privacy refusal, a bad request, a shard's
	// not-owner refusal). Asking again gets the same answer, and the
	// callee is alive enough to give it.
	answered outcome = iota
	// canceled: the caller gave up; nothing is known about the callee.
	canceled
	// failed: anything else, deadline overruns included — a hanging
	// callee is a failing one.
	failed
)

// classify is the one outcome rule, applied in this order: a canceled
// call is ignored, an error that says Retryable() false is the callee's
// answer, and anything else is a failure. The breaker counts answers as
// health and failures against the circuit; the retry loop retries
// failures and nothing else.
func classify(err error) outcome {
	switch {
	case err == nil:
		return answered
	case errors.Is(err, context.Canceled):
		return canceled
	}
	var r interface{ Retryable() bool }
	if errors.As(err, &r) && !r.Retryable() {
		return answered
	}
	return failed
}

// splitmix64 is the standard 64-bit finalizer; it turns (seed, n) into
// an independent uniform value, which keeps jitter deterministic
// without any shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Backoff returns the delay before retry number n (1-based): an
// exponentially grown base, capped, scaled by a deterministic jitter
// factor in [0.5, 1) — the same for every policy, so a run's schedule
// is reproducible.
func (p Policy) Backoff(n int) time.Duration {
	p = p.withDefaults()
	d := p.BaseBackoff
	for i := 1; i < n && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	u := float64(splitmix64(1^uint64(n))>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + u/2))
}

// Call is the one guarded call to a remote callee: the breaker (nil =
// none) admits it once, the policy runs its attempts, and the breaker
// hears the final outcome once. An open circuit therefore fails at once,
// as "<who>: circuit open", and never enters the retry loop.
func Call[T any](ctx context.Context, p Policy, b *Breaker, who string, op func(context.Context) (T, error)) (T, error) {
	if b != nil {
		if err := b.Allow(); err != nil {
			var zero T
			return zero, fmt.Errorf("%s: %w", who, err)
		}
	}
	v, err := retry(ctx, p, op)
	if b != nil {
		b.Report(err)
	}
	return v, err
}

// retry runs op under the policy: failures are retried with backoff
// until MaxAttempts or the overall deadline, and an attempt still
// running at the deadline is abandoned (op keeps running in its
// goroutine but its result is discarded). The value is delivered through
// the attempt's own channel, which is recycled only once its value was
// received, so an abandoned attempt can never race with the caller or
// with a later call.
func retry[T any](ctx context.Context, p Policy, op func(context.Context) (T, error)) (T, error) {
	p = p.withDefaults()
	var zero T
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	var err error
	for attempt := 1; ; attempt++ {
		var v T
		v, err = runAttempt(ctx, op)
		if err == nil {
			return v, nil
		}
		if ctx.Err() != nil || attempt >= p.MaxAttempts || classify(err) != failed {
			return zero, err
		}
		if serr := sleep(ctx, p.Backoff(attempt)); serr != nil {
			return zero, fmt.Errorf("%w (while backing off from: %v)", serr, err)
		}
	}
}

// attemptResult is what one attempt sends back. Its value is boxed, so
// that one pool of channels serves every T.
type attemptResult struct {
	v   any
	err error
}

// attempts recycles the attempts' result channels. A channel goes back
// only after its one value was received, so a channel taken from the
// pool is empty and no goroutine still holds it. An abandoned attempt's
// channel never goes back: its late send lands in a channel no other
// call can hold.
var attempts = sync.Pool{New: func() any { return make(chan attemptResult, 1) }}

// runAttempt runs one attempt and abandons it if it ignores the call's
// deadline: the mediator's latency bound must hold even over a
// misbehaving endpoint.
func runAttempt[T any](ctx context.Context, op func(context.Context) (T, error)) (T, error) {
	ch := attempts.Get().(chan attemptResult)
	go func() {
		v, err := op(ctx)
		ch <- attemptResult{v: v, err: err}
	}()
	select {
	case r := <-ch:
		attempts.Put(ch)
		v, _ := r.v.(T)
		return v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
