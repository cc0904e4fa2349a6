package mediator

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateiye/internal/admission"
	"privateiye/internal/refusal"
)

const admitQuery = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 0.9"

func TestAdmissionShedsWhenSaturated(t *testing.T) {
	m, err := New(Config{
		Endpoints:         twoHospitals(t),
		WarehouseCapacity: 8,
		WarehouseTTL:      1,
		Admission:         &admission.Config{MaxConcurrent: 1, QueueCapacity: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// r1's answer is materialized, but Brownout is off: the warehouse
	// must not turn the shed below into a stale answer.
	if _, err := m.Query(admitQuery, "r1"); err != nil {
		t.Fatal(err)
	}
	// Occupy the single slot directly, then query: the query must be
	// shed, not queued.
	g, err := m.admit.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Query(admitQuery, "r1")
	var sh *admission.ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("saturated query = %v, want ShedError", err)
	}
	if sh.Reason != refusal.Overloaded {
		t.Fatalf("reason = %v", sh.Reason)
	}
	if !strings.Contains(err.Error(), "mediator: overloaded") {
		t.Fatalf("message = %q", err)
	}
	g.Release(nil)
	// Capacity freed: normal service resumes.
	if _, err := m.Query(admitQuery, "r1"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if s := m.AdmissionStats(); s.ShedQueueFull != 1 || s.Admitted != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAdmissionRateLimitPerRequester(t *testing.T) {
	m, err := New(Config{
		Endpoints: twoHospitals(t),
		Admission: &admission.Config{RatePerSec: 0.001, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(admitQuery, "greedy"); err != nil {
		t.Fatalf("first query: %v", err)
	}
	_, err = m.Query(admitQuery, "greedy")
	var sh *admission.ShedError
	if !errors.As(err, &sh) || sh.Reason != refusal.RateLimited {
		t.Fatalf("second query = %v, want ratelimited shed", err)
	}
	if hint, ok := sh.RetryAfterHint(); !ok || hint <= 0 {
		t.Fatalf("hint = %v %v", hint, ok)
	}
	// The bucket is per requester: others are unaffected.
	if _, err := m.Query(admitQuery, "polite"); err != nil {
		t.Fatalf("other requester: %v", err)
	}
}

func TestBrownoutServesStaleWarehouse(t *testing.T) {
	m, err := New(Config{
		Endpoints:         twoHospitals(t),
		WarehouseCapacity: 8,
		WarehouseTTL:      1,
		Admission:         &admission.Config{MaxConcurrent: 1, QueueCapacity: -1},
		Brownout:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Admitted query materializes the result; the TTL of 1 tick makes
	// it stale immediately after the round's Tick.
	if _, err := m.Query(admitQuery, "steady"); err != nil {
		t.Fatal(err)
	}
	g, err := m.admit.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release(nil)

	// Saturated + brownout + materialization present: stale answer.
	in, err := m.Query(admitQuery, "steady")
	if err != nil {
		t.Fatalf("brownout query: %v", err)
	}
	if !in.Stale || !in.FromWarehouse {
		t.Fatalf("response not marked stale: %+v", in)
	}
	if len(in.Answered) != 1 || in.Answered[0] != "warehouse" {
		t.Fatalf("answered = %v", in.Answered)
	}
	if in.StaleAge < 1 {
		t.Fatalf("stale age = %d", in.StaleAge)
	}
	if len(in.Result.Rows) == 0 {
		t.Fatal("stale answer carries no rows")
	}

	// The stale marker survives the wire.
	rt, err := IntegratedFromNode(IntegratedToNode(in))
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Stale || rt.StaleAge != in.StaleAge {
		t.Fatalf("roundtrip lost staleness: %+v", rt)
	}

	// No materialization for this (requester, query): the shed stands.
	_, err = m.Query(admitQuery, "stranger")
	var sh *admission.ShedError
	if !errors.As(err, &sh) || sh.Reason != refusal.Overloaded {
		t.Fatalf("unmaterialized brownout = %v, want overloaded shed", err)
	}

	// A rate-limited requester is never browned out.
	m2, err := New(Config{
		Endpoints:         twoHospitals(t),
		WarehouseCapacity: 8,
		WarehouseTTL:      1,
		Admission:         &admission.Config{RatePerSec: 0.001, Burst: 1},
		Brownout:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Query(admitQuery, "greedy"); err != nil {
		t.Fatal(err)
	}
	_, err = m2.Query(admitQuery, "greedy")
	if !errors.As(err, &sh) || sh.Reason != refusal.RateLimited {
		t.Fatalf("rate-limited query = %v, want ratelimited shed (no brownout)", err)
	}
}

func TestHandlerMapsShedsToHTTP(t *testing.T) {
	m, err := New(Config{
		Endpoints: twoHospitals(t),
		Admission: &admission.Config{MaxConcurrent: 1, QueueCapacity: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	g, err := m.admit.Acquire(context.Background(), "occupier")
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(admitQuery))
	req.Header.Set("X-Requester", "r1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("body = %s", body)
	}

	g.Release(nil)
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(admitQuery))
	req2.Header.Set("X-Requester", "r1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-flood status = %d", resp2.StatusCode)
	}
}
