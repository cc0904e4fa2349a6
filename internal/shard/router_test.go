package shard

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/resilience"
)

// fakeShard is an httptest stand-in for one mediator shard: it records
// every /query it receives and answers via a swappable handler.
type fakeShard struct {
	name string
	srv  *httptest.Server

	mu      sync.Mutex
	reqs    []string // requester per received query
	handler func(w http.ResponseWriter, r *http.Request)
}

// serveEmpty answers a query with an empty integrated result.
func serveEmpty(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("<integrated></integrated>"))
}

func newFakeShard(t *testing.T, name string) *fakeShard {
	t.Helper()
	f := &fakeShard{name: name, handler: serveEmpty}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.reqs = append(f.reqs, r.Header.Get("X-Requester"))
		h := f.handler
		f.mu.Unlock()
		h(w, r)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) setHandler(h func(w http.ResponseWriter, r *http.Request)) {
	f.mu.Lock()
	f.handler = h
	f.mu.Unlock()
}

func (f *fakeShard) requesters() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.reqs...)
}

func (f *fakeShard) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.reqs)
}

func newTestRouter(t *testing.T, shards []*fakeShard, tweak func(*RouterConfig)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := RouterConfig{
		Seed:  DefaultSeed,
		Retry: resilience.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	}
	for _, f := range shards {
		cfg.Shards = append(cfg.Shards, Backend{Name: f.name, URL: f.srv.URL})
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return rt, srv
}

func routerQuery(t *testing.T, url, requester string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader("FOR //x RETURN //x"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Requester", requester)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestRouterStickiness: every requester lands on exactly one shard,
// repeatedly, and the shard is the one an independently built ring
// (same seed, same names) computes — the contract that lets the
// mediator's ownership gate verify the router's routing.
func TestRouterStickiness(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard-a"), newFakeShard(t, "shard-b"), newFakeShard(t, "shard-c")}
	_, srv := newTestRouter(t, shards, nil)

	ref := New(DefaultSeed, 0)
	byName := map[string]*fakeShard{}
	for _, f := range shards {
		if err := ref.Add(f.name); err != nil {
			t.Fatal(err)
		}
		byName[f.name] = f
	}
	for i := 0; i < 30; i++ {
		requester := fmt.Sprintf("requester-%02d", i)
		want, err := ref.Lookup(requester)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			if status, body := routerQuery(t, srv.URL, requester); status != http.StatusOK {
				t.Fatalf("query %s: %d %s", requester, status, body)
			}
		}
		// All three repeats must be on the reference owner and nowhere else.
		for name, f := range byName {
			for _, got := range f.requesters() {
				if got == requester && name != want {
					t.Fatalf("requester %s landed on %s, ring owner is %s", requester, name, want)
				}
			}
		}
	}
	used := 0
	for _, f := range shards {
		if f.count() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("30 requesters used %d of 3 shards; routing is not spreading", used)
	}
}

// TestRouterPassthrough: refusal semantics survive the hop — a 403
// privacy refusal keeps its status and body, and a not-owner 503 comes
// back once and is not routed elsewhere. The router must never rewrite
// a refusal into a success or a 403 into a retryable 503.
func TestRouterPassthrough(t *testing.T) {
	f := newFakeShard(t, "only")
	_, srv := newTestRouter(t, []*fakeShard{f}, nil)

	refusal := "mediator: refusing release: combined with your earlier rate-by-test statistics it would pin hidden rate values"
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, refusal, http.StatusForbidden)
	})
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusForbidden {
		t.Fatalf("privacy refusal arrived as %d, want 403", status)
	}
	if !strings.Contains(body, "combined with your earlier") {
		t.Fatalf("refusal body rewritten: %q", body)
	}
	if got := f.count(); got != 1 {
		t.Fatalf("403 was retried: shard saw %d requests", got)
	}

	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "mediator: shard only is not the owner of requester drWho (owner other)", http.StatusServiceUnavailable)
	})
	if status, body := routerQuery(t, srv.URL, "drWho"); status != http.StatusServiceUnavailable || !strings.Contains(body, "not the owner") {
		t.Fatalf("not-owner refusal arrived as %d %q, want its 503", status, body)
	}
	if got := f.count(); got != 2 {
		t.Fatalf("not-owner was retried: shard saw %d requests, want 2", got)
	}
}

// TestRouterRefusesOversizedAnswer: a shard answer past maxAnswerBytes
// is refused with a 502, asked once. It used to be cut at the cap and
// its prefix forwarded under the shard's 200.
func TestRouterRefusesOversizedAnswer(t *testing.T) {
	f := newFakeShard(t, "only")
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<integrated>"))
		w.Write(make([]byte, maxAnswerBytes))
		w.Write([]byte("</integrated>"))
	})
	_, srv := newTestRouter(t, []*fakeShard{f}, nil)
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusBadGateway || strings.Contains(body, "<integrated>") {
		t.Fatalf("oversized answer arrived as %d with %d bytes, want a 502 and no prefix", status, len(body))
	}
	if got := f.count(); got != 1 {
		t.Fatalf("oversized answer was retried: shard saw %d requests, want 1", got)
	}
}

// TestRouterRetriesTransientFailures: a shard that fails once with a
// 500 and then recovers is retried within the same routed query.
func TestRouterRetriesTransientFailures(t *testing.T) {
	f := newFakeShard(t, "only")
	var mu sync.Mutex
	failures := 1
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("<integrated></integrated>"))
	})
	_, srv := newTestRouter(t, []*fakeShard{f}, nil)
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusOK {
		t.Fatalf("retry did not recover: %d %s", status, body)
	}
	if got := f.count(); got != 2 {
		t.Fatalf("shard saw %d attempts, want 2 (one failure + one retry)", got)
	}
}

// TestRouterHealthGate: a shard failing /readyz is refused fast with a
// 503, without burning the retry budget against a dead socket.
func TestRouterHealthGate(t *testing.T) {
	f := newFakeShard(t, "only")
	f.srv.Config.Handler.(*http.ServeMux).HandleFunc("GET /readyz2", func(w http.ResponseWriter, r *http.Request) {})
	dead := newFakeShard(t, "dead")
	deadMux := http.NewServeMux()
	deadMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replaying wal", http.StatusServiceUnavailable)
	})
	dead.srv.Config.Handler = deadMux

	_, srv := newTestRouter(t, []*fakeShard{f, dead}, func(cfg *RouterConfig) {
		cfg.HealthEvery = 50 * time.Millisecond
	})
	ref := New(DefaultSeed, 0)
	ref.Add("only")
	ref.Add("dead")
	deadReq, okReq := "", ""
	for i := 0; i < 1000 && (deadReq == "" || okReq == ""); i++ {
		cand := fmt.Sprintf("requester-%03d", i)
		if o, _ := ref.Lookup(cand); o == "dead" {
			deadReq = cand
		} else {
			okReq = cand
		}
	}
	status, body := routerQuery(t, srv.URL, deadReq)
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "readiness") {
		t.Fatalf("unhealthy shard: got %d %q, want fast 503", status, body)
	}
	if status, _ := routerQuery(t, srv.URL, okReq); status != http.StatusOK {
		t.Fatalf("healthy shard refused: %d", status)
	}
	if dead.count() != 0 {
		t.Fatalf("router forwarded %d queries to a shard that failed readiness", dead.count())
	}
}

// TestRouterBreaker: a shard that is gone (connection refused) trips
// its breaker after the threshold, and subsequent queries fail fast
// with the circuit-open error instead of re-dialing a dead socket.
func TestRouterBreaker(t *testing.T) {
	f := newFakeShard(t, "only")
	f.srv.Close() // connection refused from the first query on

	rt, srv := newTestRouter(t, []*fakeShard{f}, func(cfg *RouterConfig) {
		cfg.Retry = resilience.Policy{MaxAttempts: 1}
		cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 3, OpenFor: time.Hour}
	})
	for i := 0; i < 3; i++ {
		if status, _ := routerQuery(t, srv.URL, "drWho"); status != http.StatusBadGateway {
			t.Fatalf("dead shard answered %d, want 502", status)
		}
	}
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusBadGateway || !strings.Contains(body, "circuit open") {
		t.Fatalf("after threshold: %d %q, want circuit-open 502", status, body)
	}
	if st := rt.byName["only"].breaker.State(); st != "open" {
		t.Fatalf("breaker state %q, want open", st)
	}
}

// TestRouterOpenCircuitFailsFast: the breaker admits a routed query once,
// before the retry loop, so an open circuit answers its 502 at once
// instead of backing off and retrying into its own refusal.
func TestRouterOpenCircuitFailsFast(t *testing.T) {
	f := newFakeShard(t, "only")
	f.srv.Close()

	_, srv := newTestRouter(t, []*fakeShard{f}, func(cfg *RouterConfig) {
		cfg.Retry = resilience.Policy{MaxAttempts: 3, BaseBackoff: 200 * time.Millisecond}
		cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour}
	})
	if status, _ := routerQuery(t, srv.URL, "drWho"); status != http.StatusBadGateway {
		t.Fatalf("dead shard answered %d, want 502", status)
	}
	start := time.Now()
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusBadGateway || !strings.Contains(body, "circuit open") {
		t.Fatalf("after the threshold: %d %q, want circuit-open 502", status, body)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("open circuit answered after %v, want under 50ms", d)
	}
}

// TestRouterBreakerIgnoresRefusals pins that a shard's refusal — a
// privacy refusal, a not-owner refusal — is proof of health, asked once:
// a requester hammering their ledger limit must not be able to open the
// circuit and deny the shard to everyone else.
func TestRouterBreakerIgnoresRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		msg    string
	}{
		{"privacy refusal", http.StatusForbidden, "release refused: would exceed the disclosure budget when combined"},
		{"not owner", http.StatusServiceUnavailable, "mediator: shard only is not the owner of requester snooper (owner other)"},
	} {
		f := newFakeShard(t, "only")
		f.setHandler(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, tc.msg, tc.status)
		})
		rt, srv := newTestRouter(t, []*fakeShard{f}, func(cfg *RouterConfig) {
			cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour}
		})
		for i := 0; i < 5; i++ {
			if status, _ := routerQuery(t, srv.URL, "snooper"); status != tc.status {
				t.Fatalf("%s: refusal %d answered %d, want %d passthrough", tc.name, i, status, tc.status)
			}
		}
		if st := rt.byName["only"].breaker.State(); st != "closed" {
			t.Errorf("%s: breaker state %q after five refusals, want closed", tc.name, st)
		}
		if got := f.count(); got != 5 {
			t.Errorf("%s: shard saw %d requests for five queries, want 5", tc.name, got)
		}
	}
}

// An oversized query body is refused at the router with 413 and never
// reaches a shard — it used to be cut at the limit and forwarded.
func TestRouterQueryBodyLimit(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	_, srv := newTestRouter(t, []*fakeShard{a}, nil)
	const limit = 1 << 20
	for _, tc := range []struct {
		name      string
		size      int
		want      int
		forwarded int
	}{
		{"small", 64, http.StatusOK, 1},
		{"at the limit", limit, http.StatusOK, 1},
		{"one past the limit", limit + 1, http.StatusRequestEntityTooLarge, 0},
	} {
		before := a.count()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(strings.Repeat("x", tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Requester", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want || a.count()-before != tc.forwarded {
			t.Errorf("%s (%d bytes): status %d forwarded %d, want %d and %d",
				tc.name, tc.size, resp.StatusCode, a.count()-before, tc.want, tc.forwarded)
		}
	}
}
