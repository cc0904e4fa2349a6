// Package resilience is the fault-tolerance layer of the mediation
// engine. The paper's premise is that sources are autonomous — which in
// deployment means slow, flaky, and sometimes dead — so every remote
// interaction is run under a Policy (retry with exponential backoff and
// deterministic jitter, per-attempt and overall deadlines) behind a
// per-source circuit Breaker (consecutive failures open the circuit;
// a half-open probe re-admits a recovered source). The Endpoint
// decorator applies both to any source.Endpoint, and the Chaos wrapper
// injects deterministic faults for tests.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy configures retries and deadlines for one remote call. The zero
// value is usable: sensible defaults are applied by every method.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 2s).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter stream. Two policies
	// with the same seed back off identically — reproducibility is a
	// feature of every experiment in this repo (default 1).
	JitterSeed uint64
	// AttemptTimeout bounds each individual attempt (0 = none). An
	// attempt that overruns is abandoned and counts as a failure, even
	// when the callee ignores its context.
	AttemptTimeout time.Duration
	// Timeout bounds the whole call across attempts and backoffs
	// (0 = none).
	Timeout time.Duration
	// Retryable overrides retry classification. When nil the default
	// applies: context cancellation is never retried, errors exposing
	// a `Retryable() bool` method (e.g. source.HTTPError) decide for
	// themselves, everything else is retried.
	Retryable func(error) bool
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
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	return p
}

// retryable applies the default classification unless overridden.
func (p Policy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var r interface{ Retryable() bool }
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return true
}

// splitmix64 is the standard 64-bit finalizer; it turns (seed, attempt)
// into an independent uniform value, which keeps jitter deterministic
// without any shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Backoff returns the delay before retry number retry (1-based): an
// exponentially grown base, capped, scaled by a deterministic jitter
// factor in [0.5, 1).
func (p Policy) Backoff(retry int) time.Duration {
	p = p.withDefaults()
	d := p.BaseBackoff
	for i := 1; i < retry && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	u := float64(splitmix64(p.JitterSeed^uint64(retry))>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + u/2))
}

// Do runs op under the policy: each attempt gets its own deadline, an
// attempt that overruns is abandoned (op keeps running in its goroutine
// but its result is discarded), and transient failures are retried with
// backoff until MaxAttempts or the overall deadline. The value is
// delivered through the attempt's own channel, so an abandoned attempt
// can never race with the caller.
func Do[T any](ctx context.Context, p Policy, op func(context.Context) (T, error)) (T, error) {
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
		v, err = runAttempt(ctx, p.AttemptTimeout, op)
		if err == nil {
			return v, nil
		}
		if ctx.Err() != nil || attempt >= p.MaxAttempts || !p.retryable(err) {
			return zero, err
		}
		delay := p.Backoff(attempt)
		// A server that said Retry-After knows its own backlog better
		// than our exponential schedule does; never retry sooner than it
		// asked (retrying into a throttle just burns its admission queue).
		var ra interface{ RetryAfterHint() (time.Duration, bool) }
		if errors.As(err, &ra) {
			if hint, ok := ra.RetryAfterHint(); ok && hint > delay {
				delay = hint
			}
		}
		if serr := sleep(ctx, delay); serr != nil {
			return zero, fmt.Errorf("%w (while backing off from: %v)", serr, err)
		}
	}
}

type attemptResult[T any] struct {
	v   T
	err error
}

// runAttempt runs one attempt under its own deadline and abandons it if
// it ignores the deadline: the mediator's latency bound must hold even
// over a misbehaving endpoint.
func runAttempt[T any](ctx context.Context, timeout time.Duration, op func(context.Context) (T, error)) (T, error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ch := make(chan attemptResult[T], 1)
	go func() {
		v, err := op(actx)
		ch <- attemptResult[T]{v: v, err: err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-actx.Done():
		var zero T
		return zero, actx.Err()
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
