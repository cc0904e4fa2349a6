package mediator

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
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

// threeHospitals is twoHospitals and a third whose ages are open.
func threeHospitals(t *testing.T) []source.Endpoint {
	return append(twoHospitals(t), localEndpoint(t, hospitalConfig(t, "hospitalC", 3, 30, false)))
}

// A hung source is denied as a timeout once the fan-out's deadline
// passes, SourceTimeout after the fan-out began, and the other two
// still integrate.
func TestHangingSourceReturnsPartialWithinDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	eps := threeHospitals(t)
	chaosB := resilience.NewChaos(eps[1], resilience.ChaosConfig{})
	eps[1] = chaosB

	m, err := New(Config{Endpoints: eps, SourceTimeout: timeout})
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
	if elapsed < timeout || elapsed > timeout+time.Second {
		t.Errorf("query took %v; the hung source should be given up at the %v fan-out deadline", elapsed, timeout)
	}
	if !slices.Equal(in.Answered, []string{"hospitalA", "hospitalC"}) {
		t.Errorf("answered = %v, want the two live hospitals", in.Answered)
	}
	reason, hung := in.Denied["hospitalB"]
	if !hung || len(in.Denied) != 1 {
		t.Fatalf("the hung source alone should appear in Denied: %v", in.Denied)
	}
	if !strings.HasPrefix(reason, "timeout:") {
		t.Errorf("hang denial should be a distinguishable timeout, got %q", reason)
	}
}

// deadlineRecorder hands the context of each Query call to seen.
type deadlineRecorder struct {
	source.Endpoint
	seen chan<- context.Context
}

func (e deadlineRecorder) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	e.seen <- ctx
	return e.Endpoint.Query(ctx, text, requester)
}

// One deadline bounds a query's whole fan-out: every source's call sees
// the same one, SourceTimeout after the fan-out began, and each call's
// context is done once the query has returned.
func TestFanoutSharesOneDeadline(t *testing.T) {
	const timeout = 5 * time.Second
	seen := make(chan context.Context, 3)
	var eps []source.Endpoint
	for _, ep := range threeHospitals(t) {
		eps = append(eps, deadlineRecorder{ep, seen})
	}
	m, err := New(Config{Endpoints: eps, SourceTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "r"); err != nil {
		t.Fatal(err)
	}
	end := time.Now()
	close(seen)
	var deadlines []time.Time
	for ctx := range seen {
		d, ok := ctx.Deadline()
		if !ok {
			t.Fatal("a source call ran without a deadline")
		}
		deadlines = append(deadlines, d)
		if ctx.Err() == nil {
			t.Error("a source call's context is still live after the query returned")
		}
	}
	if len(deadlines) != 3 {
		t.Fatalf("%d source calls, want 3", len(deadlines))
	}
	for _, d := range deadlines {
		if !d.Equal(deadlines[0]) {
			t.Errorf("source calls of one query see deadlines %v, want one", deadlines)
			break
		}
	}
	if d := deadlines[0]; d.Before(start.Add(timeout)) || d.After(end.Add(timeout)) {
		t.Errorf("deadline %v after the query began, want %v after the fan-out began", d.Sub(start), timeout)
	}
}

// A schema refresh with a hung source merges the others' summaries once
// the refresh's one deadline passes.
func TestRefreshSchemaSkipsHungSource(t *testing.T) {
	const timeout = 200 * time.Millisecond
	eps := threeHospitals(t)
	chaosC := resilience.NewChaos(eps[2], resilience.ChaosConfig{})
	eps[2] = chaosC
	m, err := New(Config{Endpoints: eps, SourceTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	chaosC.SetHang(true)
	start := time.Now()
	if err := m.RefreshSchema(); err != nil {
		t.Fatalf("refresh with one hung source should succeed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > timeout+time.Second {
		t.Errorf("refresh took %v; the hung source should be given up at the %v deadline", elapsed, timeout)
	}
	m.mu.RLock()
	_, a := m.bySource["hospitalA"]
	_, b := m.bySource["hospitalB"]
	_, c := m.bySource["hospitalC"]
	m.mu.RUnlock()
	if !a || !b || c {
		t.Errorf("summaries merged: A %v, B %v, C %v; want the two live hospitals'", a, b, c)
	}
	if m.MediatedSchema().Len() == 0 {
		t.Error("the live sources' summaries were not merged")
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

	// No fan-out deadline: only the caller's cancellation can
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
