package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privateiye/internal/source"
)

// ErrInjected marks a fault produced by the Chaos wrapper, so tests can
// tell injected failures from real ones.
var ErrInjected = errors.New("injected fault")

// ChaosConfig is a deterministic fault schedule. Per-call decisions are
// pure functions of (Seed, call number), so a run's fault pattern is
// reproducible regardless of goroutine scheduling.
type ChaosConfig struct {
	// Seed drives the error stream (default 1).
	Seed uint64
	// Latency is added to every successful call.
	Latency time.Duration
	// ErrorRate is the probability in [0, 1] that a call fails with
	// ErrInjected.
	ErrorRate float64
	// FlapEvery alternates the source between up and down every
	// FlapEvery calls (0 = no flapping): calls 1..N succeed, N+1..2N
	// fail, and so on.
	FlapEvery int
}

// Chaos wraps an Endpoint with the configured fault schedule plus two
// runtime switches (SetDown, SetHang). It also counts dials: every call
// that reaches the wrapper increments the counter, so a test can verify
// that an open circuit breaker really stopped dialing. It replaces the
// ad-hoc flaky test doubles.
type Chaos struct {
	source.Endpoint // the inner endpoint wrapped in inject
	cfg             ChaosConfig
	calls           atomic.Int64

	mu   sync.Mutex
	down bool
	hang bool
}

// NewChaos wraps inner with the fault schedule.
func NewChaos(inner source.Endpoint, cfg ChaosConfig) *Chaos {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Chaos{cfg: cfg}
	c.Endpoint = source.Wrap(inner, c.inject)
	return c
}

// Calls returns how many calls reached this wrapper (the dial counter).
func (c *Chaos) Calls() int { return int(c.calls.Load()) }

// SetDown makes every call fail with ErrInjected (a dead node).
func (c *Chaos) SetDown(down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = down
}

// SetHang makes every call block until its context is done (a wedged
// node — the failure mode a plain error path never exercises).
func (c *Chaos) SetHang(hang bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hang = hang
}

// inject applies the fault schedule to the next call: it fails it, hangs
// it, or delays it and lets it through.
func (c *Chaos) inject(ctx context.Context, call func(context.Context) (any, error)) (any, error) {
	n := c.calls.Add(1)
	c.mu.Lock()
	down, hang := c.down, c.hang
	c.mu.Unlock()
	if hang {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if c.cfg.FlapEvery > 0 && ((n-1)/int64(c.cfg.FlapEvery))%2 == 1 {
		down = true
	}
	if !down && c.cfg.ErrorRate > 0 {
		u := float64(splitmix64(c.cfg.Seed^uint64(n))>>11) / float64(1<<53)
		down = u < c.cfg.ErrorRate
	}
	if down {
		return nil, fmt.Errorf("source %s: %w", c.Name(), ErrInjected)
	}
	if d := c.cfg.Latency; d > 0 {
		if err := sleep(ctx, d); err != nil {
			return nil, err
		}
	}
	return call(ctx)
}
