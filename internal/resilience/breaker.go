package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Breaker.Allow while the circuit is open: the
// source is presumed dead and is not dialed. The mediator reports it in
// Denied as a skip, distinguishable from a real refusal.
var ErrOpen = errors.New("circuit open (source presumed down)")

// BreakerConfig parameterizes a circuit breaker. The zero value gets
// defaults.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that opens
	// the circuit (default 5).
	FailureThreshold int
	// OpenFor is the cool-down before a half-open probe is admitted
	// (default 5s).
	OpenFor time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// OnStateChange, when non-nil, is called after every state
	// transition with the old and new state names ("closed", "open",
	// "half-open"). It runs outside the breaker's lock, so it may call
	// back into the breaker; it must not block (the observability layer
	// counts transitions here).
	OnStateChange func(from, to string)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker state machine: Closed (normal) → Open after FailureThreshold
// consecutive failures → HalfOpen after the cool-down, admitting exactly
// one probe → Closed on probe success, Open again on probe failure.
type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-source circuit breaker. All methods are safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed. While open it returns
// ErrOpen without dialing; once the cool-down has elapsed it admits a
// single half-open probe (concurrent callers still get ErrOpen until
// the probe reports).
func (b *Breaker) Allow() error {
	b.mu.Lock()
	prev := b.state
	var err error
	switch b.state {
	case stateClosed:
		// proceed
	case stateOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			err = ErrOpen
		} else {
			b.state = stateHalfOpen
			b.probing = true
		}
	default: // half-open
		if b.probing {
			err = ErrOpen
		} else {
			b.probing = true
		}
	}
	next := b.state
	b.mu.Unlock()
	b.notify(prev, next)
	return err
}

// notify runs the OnStateChange hook outside the lock.
func (b *Breaker) notify(from, to breakerState) {
	if from != to && b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from.String(), to.String())
	}
}

// Report records the final outcome of an allowed call by the one
// outcome rule (classify). A canceled call says nothing about the
// callee's health and is ignored; it hands a half-open probe's slot
// back, so the next call probes instead of the circuit staying
// half-open for good. Success and the callee's own answer (an error
// that says Retryable() false, such as a privacy refusal or a shard's
// not-owner refusal) are proof of health: were refusals counted, one
// requester probing their limit could open the circuit for every
// requester. Anything else is a failure (deadline overruns included — a
// hanging callee is failing).
func (b *Breaker) Report(err error) {
	o := classify(err)
	b.mu.Lock()
	prev := b.state
	switch {
	case o == canceled:
		b.probing = false
	case o == answered:
		b.state = stateClosed
		b.failures = 0
		b.probing = false
	case b.state == stateHalfOpen:
		// Failed probe: back to open, restart the cool-down.
		b.state = stateOpen
		b.openedAt = b.cfg.Clock()
		b.probing = false
	default:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.state = stateOpen
			b.openedAt = b.cfg.Clock()
		}
	}
	next := b.state
	b.mu.Unlock()
	b.notify(prev, next)
}

// State reports the current state name ("closed", "open", "half-open")
// for logs and experiments.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
