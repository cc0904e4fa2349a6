package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// stubEndpoint answers every call successfully with empty payloads.
type stubEndpoint struct{ name string }

func (s stubEndpoint) Name() string { return s.name }
func (s stubEndpoint) Describe(context.Context) (*source.Description, error) {
	return &source.Description{Summary: xmltree.NewSummary(), Suites: []string{"x25519", "modp2048"}}, nil
}
func (s stubEndpoint) Query(context.Context, string, string) (*xmltree.Node, error) {
	return xmltree.NewElem("answer"), nil
}
func (s stubEndpoint) PSIBlinded(context.Context, string, string) (*xmltree.Node, error) {
	return xmltree.NewElem("elems"), nil
}
func (s stubEndpoint) PSIExponentiate(_ context.Context, e *xmltree.Node) (*xmltree.Node, error) {
	return e, nil
}

var _ source.Endpoint = stubEndpoint{}

func TestChaosErrorScheduleIsDeterministic(t *testing.T) {
	run := func() []bool {
		c := NewChaos(stubEndpoint{name: "s"}, ChaosConfig{Seed: 42, ErrorRate: 0.5})
		outcomes := make([]bool, 40)
		for i := range outcomes {
			_, err := c.Query(bg, "q", "r")
			outcomes[i] = err == nil
		}
		return outcomes
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: schedules diverge", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails < 10 || fails > 30 {
		t.Errorf("error rate 0.5 produced %d/40 failures", fails)
	}
}

func TestChaosFlapSchedule(t *testing.T) {
	c := NewChaos(stubEndpoint{name: "s"}, ChaosConfig{FlapEvery: 3})
	var outcomes []bool
	for i := 0; i < 12; i++ {
		_, err := c.Query(bg, "q", "r")
		outcomes = append(outcomes, err == nil)
	}
	want := []bool{true, true, true, false, false, false, true, true, true, false, false, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("flap schedule at call %d = %v, want %v (%v)", i+1, outcomes[i], want[i], outcomes)
		}
	}
	if c.Calls() != 12 {
		t.Errorf("dial counter = %d, want 12", c.Calls())
	}
}

func TestChaosDownInjectsMarkedError(t *testing.T) {
	c := NewChaos(stubEndpoint{name: "s"}, ChaosConfig{})
	c.SetDown(true)
	if _, err := c.Describe(bg); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	c.SetDown(false)
	if _, err := c.Describe(bg); err != nil {
		t.Fatalf("recovered chaos should pass through: %v", err)
	}
}

func TestChaosHangHonorsContext(t *testing.T) {
	c := NewChaos(stubEndpoint{name: "s"}, ChaosConfig{})
	c.SetHang(true)
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, "q", "r")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("hang did not release on context expiry")
	}
}

func TestChaosLatencyInjection(t *testing.T) {
	c := NewChaos(stubEndpoint{name: "s"}, ChaosConfig{Latency: 20 * time.Millisecond})
	start := time.Now()
	if _, err := c.Query(bg, "q", "r"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency not injected: call took %v", d)
	}
}
