package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/refusal"
)

// fakeClock is a manually advanced clock for deterministic AIMD and
// token-bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	g, err := c.Acquire(context.Background(), "anyone")
	if err != nil {
		t.Fatalf("nil controller refused: %v", err)
	}
	g.Release(nil) // must not panic
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
}

func TestDisabledConfigBuildsNil(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c != nil {
		t.Fatal("zero config should build a nil (pass-through) controller")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxConcurrent: 2, MinConcurrent: 5}); err == nil {
		t.Fatal("min above ceiling should fail")
	}
}

func TestConcurrencyCeilingAndQueueFullShed(t *testing.T) {
	c, err := New(Config{MaxConcurrent: 2, QueueCapacity: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	g1, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	g2, err := c.Acquire(ctx, "b")
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	_, err = c.Acquire(ctx, "c")
	var sh *ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("third acquire = %v, want ShedError", err)
	}
	if sh.Reason != refusal.Overloaded {
		t.Fatalf("reason = %v", sh.Reason)
	}
	if !IsShed(err) {
		t.Fatal("IsShed should see the shed")
	}
	if refusal.Classify(err) != refusal.Overloaded {
		t.Fatalf("Classify = %v", refusal.Classify(err))
	}
	if s := c.Stats(); s.InFlight != 2 || s.ShedQueueFull != 1 {
		t.Fatalf("stats = %+v", s)
	}
	g1.Release(nil)
	g2.Release(nil)
	if s := c.Stats(); s.InFlight != 0 {
		t.Fatalf("inflight after release = %d", s.InFlight)
	}
}

func TestQueueAdmitsFIFOWhenSlotFrees(t *testing.T) {
	c, err := New(Config{MaxConcurrent: 1, QueueCapacity: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	g1, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	got := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.Acquire(ctx, "b")
			if err != nil {
				t.Errorf("queued acquire %d: %v", i, err)
				return
			}
			got <- i
			g.Release(nil)
		}(i)
		// Wait until waiter i is queued before spawning the next, so
		// the FIFO order under test is deterministic.
		depth := i
		waitFor(t, func() bool { return c.Stats().QueueDepth == depth })
	}
	g1.Release(nil)
	wg.Wait()
	if first := <-got; first != 1 {
		t.Fatalf("queue order: waiter %d ran first", first)
	}
}

func TestQueuedContextExpiryIsTimeoutNotShed(t *testing.T) {
	c, err := New(Config{MaxConcurrent: 1, QueueCapacity: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g1, err := c.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = c.Acquire(ctx, "b")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued expiry = %v, want deadline exceeded", err)
	}
	if IsShed(err) {
		t.Fatal("context expiry must not read as a shed")
	}
	if s := c.Stats(); s.ShedExpired != 1 || s.QueueDepth != 0 {
		t.Fatalf("stats = %+v", s)
	}
	g1.Release(nil)
	// The freed slot must not be burned on the departed waiter.
	g2, err := c.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	g2.Release(nil)
}

func TestDeadlineAwareShedding(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Config{MaxConcurrent: 1, QueueCapacity: 8, Clock: clk.now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Teach the EWMA a 100ms service time.
	g, _ := c.Acquire(context.Background(), "a")
	clk.advance(100 * time.Millisecond)
	g.Release(nil)

	g, _ = c.Acquire(context.Background(), "a") // occupy the slot
	// A caller with 10ms of budget faces a ~100ms predicted wait.
	ctx, cancel := context.WithDeadline(context.Background(), clk.now().Add(10*time.Millisecond))
	defer cancel()
	_, err = c.Acquire(ctx, "b")
	var sh *ShedError
	if !errors.As(err, &sh) || sh.Reason != refusal.Overloaded {
		t.Fatalf("deadline-doomed acquire = %v, want overloaded shed", err)
	}
	if !strings.Contains(err.Error(), "exceeds remaining deadline") {
		t.Fatalf("detail = %q", err)
	}
	if hint, ok := sh.RetryAfterHint(); !ok || hint <= 0 {
		t.Fatalf("hint = %v %v", hint, ok)
	}
	if s := c.Stats(); s.ShedPredictedWait != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// A caller with plenty of budget queues instead.
	done := make(chan error, 1)
	go func() {
		// Real-time deadline: far beyond the fake clock, so the
		// predicted wait fits and the context timer never fires.
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
		defer cancel2()
		g2, err := c.Acquire(ctx2, "c")
		g2.Release(nil)
		done <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })
	g.Release(nil)
	if err := <-done; err != nil {
		t.Fatalf("patient caller: %v", err)
	}
}

func TestAIMDDecreasesOnPainIncreasesOnSuccess(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Config{MaxConcurrent: 8, MinConcurrent: 1, LatencyTarget: 50 * time.Millisecond, Clock: clk.now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Stats().Limit; got != 8 {
		t.Fatalf("initial limit = %d", got)
	}
	// One slow completion halves the limit.
	g, _ := c.Acquire(context.Background(), "a")
	clk.advance(200 * time.Millisecond)
	g.Release(nil)
	if got := c.Stats().Limit; got != 4 {
		t.Fatalf("limit after pain = %d, want 4", got)
	}
	// A second pain inside the cooldown is the same episode: no change.
	g, _ = c.Acquire(context.Background(), "a")
	clk.advance(decreaseCooldown / 2)
	g.Release(context.DeadlineExceeded)
	if got := c.Stats().Limit; got != 4 {
		t.Fatalf("limit inside cooldown = %d, want 4", got)
	}
	// Pain after the cooldown halves again.
	g, _ = c.Acquire(context.Background(), "a")
	clk.advance(decreaseCooldown)
	g.Release(context.DeadlineExceeded)
	if got := c.Stats().Limit; got != 2 {
		t.Fatalf("limit after second episode = %d, want 2", got)
	}
	// limit healthy completions raise it by one (additive increase).
	for i := 0; i < 2; i++ {
		g, _ = c.Acquire(context.Background(), "a")
		clk.advance(time.Millisecond)
		g.Release(nil)
	}
	if got := c.Stats().Limit; got != 3 {
		t.Fatalf("limit after additive increase = %d, want 3", got)
	}
	// The floor holds.
	for i := 0; i < 10; i++ {
		g, _ = c.Acquire(context.Background(), "a")
		clk.advance(decreaseCooldown + time.Millisecond)
		g.Release(context.DeadlineExceeded)
	}
	if got := c.Stats().Limit; got != 1 {
		t.Fatalf("limit floor = %d, want 1", got)
	}
	// The ceiling holds.
	for i := 0; i < 100; i++ {
		g, _ = c.Acquire(context.Background(), "a")
		clk.advance(time.Millisecond)
		g.Release(nil)
	}
	if got := c.Stats().Limit; got != 8 {
		t.Fatalf("limit ceiling = %d, want 8", got)
	}
}

func TestTokenBucketPerRequester(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Config{RatePerSec: 1, Burst: 2, Clock: clk.now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		g, err := c.Acquire(ctx, "greedy")
		if err != nil {
			t.Fatalf("burst acquire %d: %v", i, err)
		}
		g.Release(nil)
	}
	_, err = c.Acquire(ctx, "greedy")
	var sh *ShedError
	if !errors.As(err, &sh) || sh.Reason != refusal.RateLimited {
		t.Fatalf("over-rate acquire = %v, want ratelimited shed", err)
	}
	if hint, ok := sh.RetryAfterHint(); !ok || hint <= 0 || hint > time.Second {
		t.Fatalf("hint = %v %v, want (0, 1s]", hint, ok)
	}
	if refusal.Classify(err) != refusal.RateLimited {
		t.Fatalf("Classify = %v", refusal.Classify(err))
	}
	// Other requesters are unaffected.
	if g, err := c.Acquire(ctx, "polite"); err != nil {
		t.Fatalf("other requester throttled: %v", err)
	} else {
		g.Release(nil)
	}
	// Tokens refill with time.
	clk.advance(1100 * time.Millisecond)
	if g, err := c.Acquire(ctx, "greedy"); err != nil {
		t.Fatalf("post-refill acquire: %v", err)
	} else {
		g.Release(nil)
	}
	if s := c.Stats(); s.ShedRateLimited != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// The bucket map is capped, and reaching the cap evicts rather than
// resets: a throttled requester cannot buy back a burst by flooding the
// gate with made-up names.
func TestBucketMapBounded(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Config{RatePerSec: 1, Burst: 2, Clock: clk.now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	buckets := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.buckets)
	}
	admit := func(requester string) {
		t.Helper()
		g, err := c.Acquire(ctx, requester)
		if err != nil {
			t.Fatalf("acquire %s: %v", requester, err)
		}
		g.Release(nil)
	}
	refused := func(when string) {
		t.Helper()
		var sh *ShedError
		if _, err := c.Acquire(ctx, "greedy"); !errors.As(err, &sh) || sh.Reason != refusal.RateLimited {
			t.Fatalf("%s: greedy acquire = %v, want ratelimited shed", when, err)
		}
	}
	admit("greedy")
	admit("greedy")
	refused("burst spent")
	for i := 0; i < maxBuckets+10; i++ {
		admit("fresh" + fmtInt(i))
		if n := buckets(); n > maxBuckets {
			t.Fatalf("bucket map grew to %d after %d names, cap is %d", n, i+1, maxBuckets)
		}
	}
	refused("after the name flood")
	// Once everyone has refilled, forgetting them changes no decision:
	// the next new name clears the map instead of evicting one by one.
	clk.advance(3 * time.Second)
	admit("latecomer")
	if n := buckets(); n != 1 {
		t.Fatalf("refilled buckets kept at the cap: %d left, want 1", n)
	}
	admit("greedy")
}

func TestReleaseIdempotent(t *testing.T) {
	c, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g, err := c.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	g.Release(nil)
	g.Release(nil)
	if s := c.Stats(); s.InFlight != 0 {
		t.Fatalf("double release leaked: %+v", s)
	}
}

func TestRegisterExportsState(t *testing.T) {
	c, err := New(Config{MaxConcurrent: 3, RatePerSec: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := obs.NewRegistry()
	c.Register(reg, "mediator")
	g, _ := c.Acquire(context.Background(), "a")
	defer g.Release(nil)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`piye_admission_limit{scope="mediator"} 3`,
		`piye_admission_inflight{scope="mediator"} 1`,
		`piye_admission_queue_depth{scope="mediator"} 0`,
		`piye_admission_admitted_total{scope="mediator"} 1`,
		`piye_admission_shed_total{scope="mediator",cause="ratelimited"} 0`,
		`piye_admission_shed_total{scope="mediator",cause="queue-full"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
}

func TestShedErrorHTTPMapping(t *testing.T) {
	over := &ShedError{Reason: refusal.Overloaded, Detail: "queue full", RetryAfter: 1500 * time.Millisecond}
	if over.HTTPStatus() != 503 {
		t.Fatalf("overloaded status = %d", over.HTTPStatus())
	}
	rl := &ShedError{Reason: refusal.RateLimited, Requester: "x", RetryAfter: time.Second}
	if rl.HTTPStatus() != 429 {
		t.Fatalf("ratelimited status = %d", rl.HTTPStatus())
	}
	if !rl.Retryable() || !over.Retryable() {
		t.Fatal("sheds should be retryable (after backoff)")
	}
	// The message survives an HTTP crossing and still classifies.
	if got := refusal.ClassifyString("source lab: 503 Service Unavailable: " + over.Error()); got != refusal.Overloaded {
		t.Fatalf("wire classify = %v", got)
	}
	if got := refusal.ClassifyString("source lab: 429 Too Many Requests: " + rl.Error()); got != refusal.RateLimited {
		t.Fatalf("wire classify = %v", got)
	}
}

// waitFor polls until cond holds or the test deadline looms.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

func fmtInt(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
