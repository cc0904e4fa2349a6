package mediator

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privateiye/internal/resilience"
	"privateiye/internal/source"
)

// The federation's failure modes: dead nodes, hanging nodes, flapping
// nodes, and callers that give up. All injected deterministically via
// resilience.Chaos.

func TestIntegrationSurvivesDeadSource(t *testing.T) {
	eps := twoHospitals(t)
	chaosB := resilience.NewChaos(eps[1], resilience.ChaosConfig{})
	eps[1] = chaosB

	m, err := New(Config{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	const q = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"

	// Healthy: both answer.
	in, err := m.Query(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 2 {
		t.Fatalf("healthy answered = %v", in.Answered)
	}

	// Source B dies: integration continues with A, and B's failure is
	// reported, not fatal.
	chaosB.SetDown(true)
	in, err = m.Query(q, "r")
	if err != nil {
		t.Fatalf("one dead source must not kill integration: %v", err)
	}
	if len(in.Answered) != 1 || in.Answered[0] != "hospitalA" {
		t.Errorf("answered = %v", in.Answered)
	}
	if _, failed := in.Denied["hospitalB"]; !failed {
		t.Errorf("dead source should appear in Denied: %v", in.Denied)
	}

	// Both dead: the query fails with the collected reasons. Construct
	// while A is still up (New needs at least one summary), then kill it.
	chaosA := resilience.NewChaos(eps[0], resilience.ChaosConfig{})
	m2, err := New(Config{Endpoints: []source.Endpoint{chaosA, chaosB}})
	if err != nil {
		t.Fatal(err)
	}
	chaosA.SetDown(true)
	if _, err := m2.Query(q, "r"); err == nil {
		t.Error("all sources dead should fail the query")
	}
}

func TestRefreshSchemaSkipsDeadSources(t *testing.T) {
	eps := twoHospitals(t)
	chaosB := resilience.NewChaos(eps[1], resilience.ChaosConfig{})
	eps[1] = chaosB
	m, err := New(Config{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	before := m.MediatedSchema().Len()
	chaosB.SetDown(true)
	if err := m.RefreshSchema(); err != nil {
		t.Fatalf("refresh with one dead source should succeed: %v", err)
	}
	if m.MediatedSchema().Len() == 0 || m.MediatedSchema().Len() > before {
		t.Errorf("schema after partial refresh = %d paths", m.MediatedSchema().Len())
	}
}

func TestNewFailsWhenNoSourceSummarizes(t *testing.T) {
	eps := twoHospitals(t)
	a := resilience.NewChaos(eps[0], resilience.ChaosConfig{})
	b := resilience.NewChaos(eps[1], resilience.ChaosConfig{})
	a.SetDown(true)
	b.SetDown(true)
	if _, err := New(Config{Endpoints: []source.Endpoint{a, b}}); err == nil {
		t.Error("mediator over only dead sources should fail to start")
	}
}

func TestHangingSourceReturnsPartialWithinDeadline(t *testing.T) {
	eps := twoHospitals(t)
	chaosB := resilience.NewChaos(eps[1], resilience.ChaosConfig{})
	eps[1] = chaosB

	m, err := New(Config{Endpoints: eps, SourceTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	chaosB.SetHang(true)

	start := time.Now()
	in, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "r")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("a hanging source must not kill integration: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("query took %v; the 200ms per-source deadline did not bound it", elapsed)
	}
	if len(in.Answered) != 1 || in.Answered[0] != "hospitalA" {
		t.Errorf("answered = %v", in.Answered)
	}
	reason, hung := in.Denied["hospitalB"]
	if !hung {
		t.Fatalf("hung source should appear in Denied: %v", in.Denied)
	}
	if !strings.HasPrefix(reason, "timeout:") {
		t.Errorf("hang denial should be a distinguishable timeout, got %q", reason)
	}
}

func TestCircuitBreakerSkipsDeadSourceThenRecovers(t *testing.T) {
	eps := twoHospitals(t)
	chaosB := resilience.NewChaos(eps[1], resilience.ChaosConfig{})
	eps[1] = chaosB

	m, err := New(Config{
		Endpoints:     eps,
		SourceTimeout: time.Second,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 1},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 50 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const q = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"

	chaosB.SetDown(true)
	// Two failing queries open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := m.Query(q, "r"); err != nil {
			t.Fatal(err)
		}
	}
	dialsWhenOpen := chaosB.Calls()
	// While open, B is skipped without dialing and the denial says so.
	for i := 0; i < 3; i++ {
		in, err := m.Query(q, "r")
		if err != nil {
			t.Fatal(err)
		}
		reason, skipped := in.Denied["hospitalB"]
		if !skipped || !strings.Contains(reason, "circuit open") {
			t.Fatalf("open breaker should skip with a circuit-open reason: %v", in.Denied)
		}
	}
	if got := chaosB.Calls(); got != dialsWhenOpen {
		t.Errorf("open breaker dialed the dead source: %d dials, want %d", got, dialsWhenOpen)
	}

	// The node recovers; after the cool-down a half-open probe
	// re-admits it.
	chaosB.SetDown(false)
	time.Sleep(70 * time.Millisecond)
	in, err := m.Query(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 2 {
		t.Errorf("recovered source should answer again: answered=%v denied=%v", in.Answered, in.Denied)
	}
}

func TestFlappingSourceBreakerHoldsPartialAnswers(t *testing.T) {
	eps := twoHospitals(t)
	// Flap every 3 calls: the schedule is deterministic, so whatever the
	// phase, every query either integrates both sources or returns a
	// partial answer — never an error.
	chaosB := resilience.NewChaos(eps[1], resilience.ChaosConfig{FlapEvery: 3})
	eps[1] = chaosB
	m, err := New(Config{
		Endpoints:     eps,
		SourceTimeout: time.Second,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 1},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 10 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const q = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"
	sawPartial, sawFull := false, false
	for i := 0; i < 12; i++ {
		in, err := m.Query(q, "r")
		if err != nil {
			t.Fatalf("query %d: flapping source must degrade, not fail: %v", i, err)
		}
		if len(in.Answered) == 2 {
			sawFull = true
		} else {
			sawPartial = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawPartial || !sawFull {
		t.Errorf("flap should produce both full and partial rounds (full=%v partial=%v)", sawFull, sawPartial)
	}
}

func TestContextCancellationMidFanout(t *testing.T) {
	eps := twoHospitals(t)
	a := resilience.NewChaos(eps[0], resilience.ChaosConfig{})
	b := resilience.NewChaos(eps[1], resilience.ChaosConfig{})

	// No per-source deadline: only the caller's cancellation can
	// unblock the hung fan-out.
	m, err := New(Config{Endpoints: []source.Endpoint{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	a.SetHang(true)
	b.SetHang(true)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = m.QueryContext(ctx, "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "r")
	if err == nil {
		t.Fatal("cancellation with every source hung should fail the query")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error should surface the cancellation: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

// A source's privacy refusal is its answer, not a fault: it is not
// retried, and it does not count against the source's circuit, so one
// requester's refusals never turn into every requester's outage. Both
// in process and over HTTP, with the daemons' retry and breaker defaults.
func TestSourceRefusalNeitherOpensItsCircuitNorIsRetried(t *testing.T) {
	for _, tc := range []struct {
		name string
		over func(source.Endpoint) source.Endpoint
	}{
		{"local", func(ep source.Endpoint) source.Endpoint { return ep }},
		{"http", func(ep source.Endpoint) source.Endpoint {
			srv := httptest.NewServer(source.NewHandler(ep.(*source.Local)))
			t.Cleanup(srv.Close)
			return source.NewClient(srv.URL, ep.Name())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := twoHospitals(t)
			chaosB := resilience.NewChaos(tc.over(eps[1]), resilience.ChaosConfig{})
			eps[0], eps[1] = tc.over(eps[0]), chaosB
			m, err := New(Config{
				Endpoints: eps,
				Resilience: &resilience.EndpointConfig{
					Policy:  resilience.Policy{MaxAttempts: 3},
					Breaker: resilience.BreakerConfig{FailureThreshold: 5, OpenFor: time.Hour},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// hospitalB denies ages: every one of these is its refusal.
			const refused = "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"
			for i := 0; i < 5; i++ {
				before := chaosB.Calls()
				in, err := m.Query(refused, "mallory")
				if err != nil {
					t.Fatal(err)
				}
				if _, denied := in.Denied["hospitalB"]; !denied {
					t.Fatalf("hospitalB should refuse ages: %v", in.Denied)
				}
				if dials := chaosB.Calls() - before; dials != 1 {
					t.Fatalf("query %d: the refusal reached hospitalB %d times, want 1", i+1, dials)
				}
			}
			in, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "alice")
			if err != nil {
				t.Fatal(err)
			}
			if len(in.Answered) != 2 {
				t.Fatalf("after mallory's refusals alice is answered by %v (denied %v), want both hospitals", in.Answered, in.Denied)
			}
		})
	}
}
