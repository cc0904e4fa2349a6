package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/source"
)

var bg = context.Background()

// fastPolicy keeps retries near-instant so tests stay fast.
func fastPolicy(attempts int) Policy {
	return Policy{
		MaxAttempts: attempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	}
}

// do runs an error-only op as a guarded call without a breaker.
func do(ctx context.Context, p Policy, op func(context.Context) error) error {
	_, err := Call(ctx, p, nil, "op", func(ctx context.Context) (struct{}, error) {
		return struct{}{}, op(ctx)
	})
	return err
}

func TestDoRetriesTransientFailures(t *testing.T) {
	calls := 0
	err := do(bg, fastPolicy(3), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("third attempt should succeed: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	calls := 0
	err := do(bg, fastPolicy(3), func(context.Context) error {
		calls++
		return errors.New("still broken")
	})
	if err == nil || calls != 3 {
		t.Errorf("err=%v calls=%d, want error after exactly 3 attempts", err, calls)
	}
}

type permErr struct{}

func (permErr) Error() string   { return "policy denial" }
func (permErr) Retryable() bool { return false }

// The outcome rule, one row per case: how many attempts a guarded call
// makes, and what its breaker makes of the final error. Each breaker
// starts one failure short of opening, and one more failure is reported
// after the call: it opens unless the call's outcome reset the streak.
func TestDoHonorsRetryableInterface(t *testing.T) {
	for _, tc := range []struct {
		name     string
		err      error
		attempts int
		state    string // after the call and one more failure
	}{
		{"canceled is ignored", fmt.Errorf("call: %w", context.Canceled), 1, "open"},
		{"non-retryable is the callee's answer", fmt.Errorf("wrapped: %w", permErr{}), 1, "closed"},
		{"a retryable 5xx is a failure", fmt.Errorf("wrapped: %w", &source.HTTPError{Source: "lab", Status: 503}), 3, "open"},
		{"anything else is a failure", errors.New("down"), 3, "open"},
	} {
		b := NewBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour})
		b.Report(errors.New("boom"))
		calls := 0
		_, err := Call(bg, fastPolicy(3), b, "s", func(context.Context) (struct{}, error) {
			calls++
			return struct{}{}, tc.err
		})
		if err == nil || calls != tc.attempts {
			t.Errorf("%s: err=%v after %d attempts, want an error after %d", tc.name, err, calls, tc.attempts)
		}
		if b.State() == "closed" {
			b.Report(errors.New("boom"))
		}
		if got := b.State(); got != tc.state {
			t.Errorf("%s: breaker %s, want %s", tc.name, got, tc.state)
		}
	}
}

func TestDoNeverRetriesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	calls := 0
	err := do(ctx, fastPolicy(5), func(context.Context) error {
		calls++
		cancel()
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Errorf("cancellation must not be retried: err=%v calls=%d", err, calls)
	}
}

func TestTimeoutAbandonsHangingOp(t *testing.T) {
	p := Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Timeout: 20 * time.Millisecond}
	// Abandoned attempts keep running in their goroutines, so the
	// counter must be atomic.
	var calls atomic.Int32
	start := time.Now()
	// The op ignores its context entirely — the worst-behaved callee.
	err := do(bg, p, func(context.Context) error {
		calls.Add(1)
		time.Sleep(500 * time.Millisecond)
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 300*time.Millisecond {
		t.Errorf("the attempt should be abandoned at the call's ~20ms deadline, took %v", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("calls = %d, want 1 (no time is left to retry in)", got)
	}
}

// Attempts' result channels are recycled, but never an abandoned
// attempt's: once abandoned attempts are released to send their values
// late, 1,000 concurrent calls each get their own value and none of the
// late ones, however the late sends interleave with them. Run it under
// -race.
func TestRecycledAttemptChannelsCarryOnlyTheirOwnValue(t *testing.T) {
	const late = -1
	release := make(chan struct{})
	var sent sync.WaitGroup
	for i := 0; i < 4; i++ {
		sent.Add(1)
		p := Policy{MaxAttempts: 1, Timeout: time.Millisecond}
		v, err := Call(bg, p, nil, "op", func(context.Context) (int, error) {
			defer sent.Done()
			<-release
			return late, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) || v != 0 {
			t.Fatalf("abandoned attempt: %d, %v", v, err)
		}
	}
	close(release)
	sent.Wait()
	var wg sync.WaitGroup
	errs := make(chan error, 1000)
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := Call(bg, fastPolicy(1), nil, "op", func(context.Context) (int, error) { return i, nil })
			if err != nil || v != i {
				errs <- fmt.Errorf("call %d got %d, %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOverallTimeoutBoundsRetries(t *testing.T) {
	p := Policy{MaxAttempts: 100, BaseBackoff: 5 * time.Millisecond, Timeout: 30 * time.Millisecond}
	start := time.Now()
	err := do(bg, p, func(context.Context) error { return errors.New("down") })
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("overall timeout should cut retries at ~30ms, took %v", elapsed)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	for retry := 1; retry <= 8; retry++ {
		a, b := p.Backoff(retry), p.Backoff(retry)
		if a != b {
			t.Fatalf("retry %d: backoff not deterministic: %v vs %v", retry, a, b)
		}
		if a > time.Second {
			t.Errorf("retry %d: backoff %v exceeds cap", retry, a)
		}
		if a < 50*time.Millisecond {
			t.Errorf("retry %d: backoff %v below half of base", retry, a)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute, Clock: clock})

	fail := errors.New("down")
	if b.Allow() != nil {
		t.Fatal("closed breaker must allow")
	}
	b.Report(fail)
	if b.Allow() != nil {
		t.Fatal("one failure must not open a threshold-2 breaker")
	}
	b.Report(fail)
	if b.State() != "open" {
		t.Fatalf("state = %s, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker must refuse: %v", err)
	}

	// Cool-down elapses: exactly one probe is admitted.
	now = now.Add(2 * time.Minute)
	if b.Allow() != nil {
		t.Fatal("half-open must admit one probe")
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent probe must be refused")
	}

	// Probe fails: back to open, cool-down restarts.
	b.Report(fail)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("failed probe must re-open")
	}

	// Next probe succeeds: closed again.
	now = now.Add(2 * time.Minute)
	if b.Allow() != nil {
		t.Fatal("cool-down elapsed again: probe must be admitted")
	}
	b.Report(nil)
	if b.State() != "closed" {
		t.Fatalf("state = %s, want closed after successful probe", b.State())
	}
	if b.Allow() != nil {
		t.Fatal("closed breaker must allow")
	}
}

func TestBreakerIgnoresCancellation(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Minute, Clock: func() time.Time { return now }})
	b.Report(fmt.Errorf("call: %w", context.Canceled))
	if b.State() != "closed" {
		t.Errorf("cancellation is not evidence of source death: state = %s", b.State())
	}
	// A canceled half-open probe hands its slot back: the next call
	// probes, rather than the circuit refusing every call for good.
	b.Report(errors.New("down"))
	now = now.Add(2 * time.Minute)
	if b.Allow() != nil {
		t.Fatal("cool-down elapsed: the probe must be admitted")
	}
	b.Report(context.Canceled)
	if err := b.Allow(); err != nil {
		t.Fatalf("a canceled probe still holds the half-open slot: %v", err)
	}
}
