// Package admission keeps an overloaded node healthy by refusing work
// early, cheaply and distinguishably. Privacy-preserving query plans are
// orders of magnitude more expensive than plain selects (rewriting,
// auditing, ledger checks, PSI), so offered load beyond capacity is the
// common case for a popular mediator, not a corner case. Without
// admission control every arriving query joins an unbounded backlog:
// latency grows without bound, per-source deadlines fire after the work
// was already done, and the WAL'd audit path burns disk for callers that
// gave up long ago.
//
// The controller composes three mechanisms in front of a protected
// stage (the mediator query path, the source execute path):
//
//  1. A per-requester token bucket. A single greedy requester is
//     throttled (refusal.RateLimited) before it can crowd out everyone
//     else, independent of total system load.
//  2. An adaptive concurrency limiter. The limit follows AIMD — add one
//     slot after a limit's worth of healthy completions, halve on pain
//     (a deadline miss or a completion slower than the latency target)
//     — between a configured floor and hard ceiling, so the node probes
//     for capacity but backs off multiplicatively when it finds the
//     cliff.
//  3. A deadline-aware bounded FIFO queue. A request that cannot run
//     immediately waits only if the estimated queue wait (queue position
//     x EWMA service time / current limit — Little's law applied to the
//     limiter) fits inside the caller's remaining context deadline;
//     otherwise it is shed now (refusal.Overloaded) instead of timing
//     out later having wasted a slot.
//
// Sheds are typed ShedErrors: they classify themselves for metrics
// (RefusalReason), advertise a pacing hint (RetryAfterHint, surfaced as
// HTTP Retry-After), and are explicitly NOT breaker failures (Shed) —
// an overloaded node is alive, and tripping the circuit on sheds would
// turn a brownout into a blackout.
//
// The zero *Controller is valid and admits everything: callers gate
// with a nil check nowhere, matching the nil-safe obs.Registry idiom.
package admission

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/refusal"
)

// Config tunes a Controller. The zero value disables everything.
type Config struct {
	// MaxConcurrent is the hard ceiling on in-flight requests, and the
	// limit the controller starts at (optimistic start; the first pain
	// signal halves it). <= 0 disables the concurrency limiter (the
	// token bucket may still be active).
	MaxConcurrent int
	// MinConcurrent is the AIMD floor; the adaptive limit never drops
	// below it. Defaults to 1.
	MinConcurrent int
	// QueueCapacity bounds the FIFO wait queue. 0 means 2x
	// MaxConcurrent; negative means no queue (shed immediately when the
	// limit is reached).
	QueueCapacity int
	// LatencyTarget is the service-time budget: completions slower than
	// this count as pain for AIMD even when no deadline fired. 0 means
	// only deadline misses and cancellations count.
	LatencyTarget time.Duration
	// RatePerSec is the per-requester token refill rate. <= 0 disables
	// rate limiting.
	RatePerSec float64
	// Burst is the token bucket capacity. Defaults to
	// max(RatePerSec, 1).
	Burst float64
	// Clock overrides time.Now in tests.
	Clock func() time.Time
}

// Enabled reports whether the config would gate anything at all.
func (c Config) Enabled() bool { return c.MaxConcurrent > 0 || c.RatePerSec > 0 }

// decreaseCooldown spaces multiplicative decreases: one burst of queued
// deadline misses reflects ONE overload episode, and halving once per
// completion in that burst would crash the limit straight to the floor.
const decreaseCooldown = 100 * time.Millisecond

// ewmaAlpha weights the newest service-time observation.
const ewmaAlpha = 0.2

// maxBuckets bounds the per-requester bucket map, so an adversarial
// requester-name flood cannot exhaust memory; at the cap a new name
// evicts refilled buckets first (see evictLocked).
const maxBuckets = 4096

// Controller is an admission gate: Acquire before the protected stage,
// Release the returned Grant after. Nil receivers admit everything.
type Controller struct {
	cfg Config
	now func() time.Time

	mu           sync.Mutex
	limit        float64
	inflight     int
	waiters      *list.List // of *waiter, FIFO
	ewmaNs       float64    // EWMA observed service time
	successes    int        // healthy completions since the last limit change
	lastDecrease time.Time
	buckets      map[string]*bucket

	admitted          uint64
	shedRateLimited   uint64
	shedQueueFull     uint64
	shedPredictedWait uint64
	shedExpired       uint64
}

type waiter struct {
	ch  chan struct{} // closed by pop() once a slot is assigned
	enq time.Time
}

// New builds a controller. A nil return (with nil error) means the
// config gates nothing, so callers can store the result unconditionally.
func New(cfg Config) (*Controller, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	if cfg.MinConcurrent <= 0 {
		cfg.MinConcurrent = 1
	}
	if cfg.MaxConcurrent > 0 && cfg.MinConcurrent > cfg.MaxConcurrent {
		return nil, fmt.Errorf("admission: min concurrency %d above ceiling %d", cfg.MinConcurrent, cfg.MaxConcurrent)
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 2 * cfg.MaxConcurrent
	}
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = math.Max(cfg.RatePerSec, 1)
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &Controller{
		cfg:     cfg,
		now:     now,
		limit:   float64(cfg.MaxConcurrent),
		waiters: list.New(),
		buckets: map[string]*bucket{},
	}, nil
}

// Grant is one admitted slot. Release it exactly once with the outcome
// error of the protected stage (nil on success); the error feeds AIMD.
type Grant struct {
	c     *Controller
	start time.Time
	once  sync.Once
}

// Acquire admits, queues or sheds a request. A nil error means the
// caller holds a slot and must Release the grant. Shed requests fail
// with a *ShedError; a context expiring while queued fails with the
// context's error (a timeout, not a shed — the caller gave up).
func (c *Controller) Acquire(ctx context.Context, requester string) (*Grant, error) {
	if c == nil {
		return nil, nil
	}
	now := c.now()
	if c.cfg.RatePerSec > 0 {
		if wait, ok := c.takeToken(requester, now); !ok {
			c.mu.Lock()
			c.shedRateLimited++
			c.mu.Unlock()
			return nil, &ShedError{
				Reason:     refusal.RateLimited,
				Requester:  requester,
				RetryAfter: wait,
			}
		}
	}
	if c.cfg.MaxConcurrent <= 0 {
		c.mu.Lock()
		c.inflight++
		c.admitted++
		c.mu.Unlock()
		return &Grant{c: c, start: now}, nil
	}

	c.mu.Lock()
	// Fast path: a free slot and no one queued ahead.
	if c.inflight < int(c.limit) && c.waiters.Len() == 0 {
		c.inflight++
		c.admitted++
		c.mu.Unlock()
		return &Grant{c: c, start: now}, nil
	}
	// Saturated: queue if the wait plausibly fits, shed otherwise.
	estWait := c.estimateWaitLocked(c.waiters.Len() + 1)
	if c.cfg.QueueCapacity < 0 || c.waiters.Len() >= c.cfg.QueueCapacity {
		c.shedQueueFull++
		inflight, limit := c.inflight, int(c.limit)
		c.mu.Unlock()
		return nil, &ShedError{
			Reason:     refusal.Overloaded,
			Requester:  requester,
			Detail:     fmt.Sprintf("%d in flight at limit %d, queue full", inflight, limit),
			RetryAfter: estWait,
		}
	}
	if dl, ok := ctx.Deadline(); ok && estWait > 0 && estWait > dl.Sub(now) {
		c.shedPredictedWait++
		c.mu.Unlock()
		return nil, &ShedError{
			Reason:     refusal.Overloaded,
			Requester:  requester,
			Detail:     fmt.Sprintf("estimated queue wait %s exceeds remaining deadline %s", estWait.Round(time.Millisecond), dl.Sub(now).Round(time.Millisecond)),
			RetryAfter: estWait,
		}
	}
	w := &waiter{ch: make(chan struct{}), enq: now}
	el := c.waiters.PushBack(w)
	c.mu.Unlock()

	select {
	case <-w.ch:
		// pop() assigned us a slot (inflight already counted).
		return &Grant{c: c, start: c.now()}, nil
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-w.ch:
			// Lost the race: a slot was assigned as the context fired.
			// Give it back and wake the next waiter.
			c.inflight--
			c.popLocked()
		default:
			c.waiters.Remove(el)
			c.shedExpired++
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Release frees the slot and feeds the outcome to AIMD. Safe on a nil
// grant and idempotent, so callers can defer it unconditionally.
func (g *Grant) Release(err error) {
	if g == nil || g.c == nil {
		return
	}
	g.once.Do(func() { g.c.release(g.start, err) })
}

func (c *Controller) release(start time.Time, err error) {
	now := c.now()
	observed := now.Sub(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if c.ewmaNs == 0 {
		c.ewmaNs = float64(observed)
	} else {
		c.ewmaNs = (1-ewmaAlpha)*c.ewmaNs + ewmaAlpha*float64(observed)
	}
	if c.cfg.MaxConcurrent > 0 {
		pain := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			(c.cfg.LatencyTarget > 0 && observed > c.cfg.LatencyTarget)
		if pain {
			if now.Sub(c.lastDecrease) >= decreaseCooldown {
				c.limit = math.Max(float64(c.cfg.MinConcurrent), math.Floor(c.limit/2))
				c.lastDecrease = now
				c.successes = 0
			}
		} else {
			c.successes++
			if c.successes >= int(c.limit) {
				c.successes = 0
				if c.limit < float64(c.cfg.MaxConcurrent) {
					c.limit++
				}
			}
		}
	}
	c.popLocked()
}

// popLocked hands freed slots to queued waiters in FIFO order.
func (c *Controller) popLocked() {
	for c.inflight < int(c.limit) {
		el := c.waiters.Front()
		if el == nil {
			return
		}
		c.waiters.Remove(el)
		c.inflight++
		c.admitted++
		close(el.Value.(*waiter).ch)
	}
}

// estimateWaitLocked predicts the queue wait at the given queue
// position: pos completions must happen, each taking ~EWMA, limit of
// them in parallel. Zero until the first completion is observed (no
// data, no shedding by prediction).
func (c *Controller) estimateWaitLocked(pos int) time.Duration {
	if c.ewmaNs == 0 || c.limit < 1 {
		return 0
	}
	return time.Duration(float64(pos) * c.ewmaNs / c.limit)
}

// Stats is a consistent snapshot of limiter state, for tests,
// experiments and the metric closures.
type Stats struct {
	Limit             int
	InFlight          int
	QueueDepth        int
	Admitted          uint64
	ShedRateLimited   uint64
	ShedQueueFull     uint64
	ShedPredictedWait uint64
	ShedExpired       uint64
}

// Stats snapshots the controller. Zero on a nil controller.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Limit:             int(c.limit),
		InFlight:          c.inflight,
		QueueDepth:        c.waiters.Len(),
		Admitted:          c.admitted,
		ShedRateLimited:   c.shedRateLimited,
		ShedQueueFull:     c.shedQueueFull,
		ShedPredictedWait: c.shedPredictedWait,
		ShedExpired:       c.shedExpired,
	}
}

// Register exports limiter state on the registry, labelled with the
// scope ("mediator" or the source name). Gauges and counters are
// sampled at scrape time from Stats, so the hot path pays nothing
// beyond its existing mutex. Nil-safe on both sides.
func (c *Controller) Register(reg *obs.Registry, scope string) {
	if c == nil || reg == nil {
		return
	}
	reg.Help("piye_admission_limit", "Current adaptive concurrency limit (AIMD between floor and ceiling).")
	reg.GaugeFunc("piye_admission_limit", func() float64 { return float64(c.Stats().Limit) }, "scope", scope)
	reg.Help("piye_admission_inflight", "Requests currently holding an admission slot.")
	reg.GaugeFunc("piye_admission_inflight", func() float64 { return float64(c.Stats().InFlight) }, "scope", scope)
	reg.Help("piye_admission_queue_depth", "Requests waiting in the admission queue.")
	reg.GaugeFunc("piye_admission_queue_depth", func() float64 { return float64(c.Stats().QueueDepth) }, "scope", scope)
	reg.Help("piye_admission_admitted_total", "Requests admitted past the gate.")
	reg.CounterFunc("piye_admission_admitted_total", func() float64 { return float64(c.Stats().Admitted) }, "scope", scope)
	reg.Help("piye_admission_shed_total", "Requests shed at the gate, by cause.")
	reg.CounterFunc("piye_admission_shed_total", func() float64 { return float64(c.Stats().ShedRateLimited) }, "scope", scope, "cause", "ratelimited")
	reg.CounterFunc("piye_admission_shed_total", func() float64 { return float64(c.Stats().ShedQueueFull) }, "scope", scope, "cause", "queue-full")
	reg.CounterFunc("piye_admission_shed_total", func() float64 { return float64(c.Stats().ShedPredictedWait) }, "scope", scope, "cause", "predicted-wait")
	reg.CounterFunc("piye_admission_shed_total", func() float64 { return float64(c.Stats().ShedExpired) }, "scope", scope, "cause", "expired")
}

// ShedError is an admission refusal. It carries everything the layers
// above need to keep sheds distinguishable from privacy refusals:
// RefusalReason feeds the metrics vocabulary, HTTPStatus picks 429 vs
// 503, RetryAfterHint paces retries, and Shed tells the circuit
// breaker this was not a failure of the protected stage.
type ShedError struct {
	// Scope names the shedding node in messages once wrapped by the
	// mediator or source ("mediator", source name); empty until then.
	Scope string
	// Reason is refusal.Overloaded or refusal.RateLimited.
	Reason refusal.Reason
	// Requester is the rate-limited principal (RateLimited only).
	Requester string
	// Detail explains an Overloaded shed.
	Detail string
	// RetryAfter is the pacing hint: time to the next token, or the
	// estimated drain time of the current backlog.
	RetryAfter time.Duration
}

// Error implements error. The "rate limit" / "overloaded" substrings
// are wire contract: refusal.ClassifyString recovers the reason from
// the message after an HTTP crossing.
func (e *ShedError) Error() string {
	scope := e.Scope
	if scope == "" {
		scope = "admission"
	}
	if e.Reason == refusal.RateLimited {
		return fmt.Sprintf("%s: rate limit exceeded for requester %s: retry after %s", scope, e.Requester, e.RetryAfter.Round(time.Millisecond))
	}
	return fmt.Sprintf("%s: overloaded: %s", scope, e.Detail)
}

// RefusalReason implements refusal.Reasoner.
func (e *ShedError) RefusalReason() refusal.Reason { return e.Reason }

// Shed marks the error as load shedding: the circuit breaker must not
// count it as a failure (the node answered, fast, with "not now").
func (e *ShedError) Shed() bool { return true }

// Retryable implements the resilience layer's optional interface:
// backing off and retrying a shed can succeed.
func (e *ShedError) Retryable() bool { return true }

// RetryAfterHint implements the resilience layer's pacing interface.
func (e *ShedError) RetryAfterHint() (time.Duration, bool) {
	if e.RetryAfter > 0 {
		return e.RetryAfter, true
	}
	return 0, false
}

// HTTPStatus is the transport mapping: 429 for per-requester
// throttling, 503 for node saturation.
func (e *ShedError) HTTPStatus() int {
	if e.Reason == refusal.RateLimited {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// IsShed is refusal.IsShed, under the name callers of this package use.
func IsShed(err error) bool { return refusal.IsShed(err) }

var _ refusal.Reasoner = (*ShedError)(nil)
