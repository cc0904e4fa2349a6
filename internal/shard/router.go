package shard

// The router is the tier's front door: it terminates /query, hashes the
// requester onto the ring, and proxies to the owning shard through the
// same guarded call (resilience.Call) the mediator uses against its
// sources — a per-shard circuit breaker around retry with backoff —
// plus health-gated membership via each shard's /readyz. A shard's
// answer survives the hop untouched: a 403 privacy refusal stays 403
// with its body verbatim (the Figure 1 refusal message is part of the
// system's interface), and any other status and body pass back as the
// shard sent them. An answer over maxAnswerBytes is refused with 502,
// never forwarded as its prefix. The router never sends a query anywhere
// but the requester's ring owner: a shard that refuses it as not-owner
// has its refusal passed back, not routed around (DESIGN.md §13).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
)

// Backend names one shard and its base URL.
type Backend struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Shards is the tier membership; every entry joins the ring.
	Shards []Backend
	// Seed must match every shard's ShardConfig, or the router's
	// placement disagrees with the shards' ownership gates.
	Seed uint64
	// Retry is the per-proxy retry policy (zero value: 3 attempts,
	// 50ms base backoff).
	Retry resilience.Policy
	// Breaker configures the per-shard circuit breaker.
	Breaker resilience.BreakerConfig
	// DisableBreaker turns the per-shard breakers off.
	DisableBreaker bool
	// HealthEvery is the /readyz polling period per shard (0 = no
	// health gating; every shard is presumed ready).
	HealthEvery time.Duration
	// Obs and Trace instrument the router (piye_router_* metrics, one
	// trace per routed query). Both nil = no instrumentation.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// backendState is one shard's runtime state inside the router.
type backendState struct {
	Backend
	who     string              // "shard <name>", for a circuit-open error
	breaker *resilience.Breaker // nil when disabled

	mu      sync.Mutex
	healthy bool
	lastErr string
}

// Router proxies /query to the owning shard.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	byName map[string]*backendState

	stop chan struct{}
	wg   sync.WaitGroup

	// Metric handles; nil (and no-ops) without a registry.
	proxied    *obs.Counter
	refused    *obs.Counter
	unavail    *obs.Counter
	lookupSec  *obs.Histogram
	proxySec   *obs.Histogram
	perShard   map[string]*obs.Counter
	healthGone *obs.Counter
}

// NewRouter builds the ring, starts the health pollers (one synchronous
// first probe per shard so the initial membership view is real), and
// returns a router ready to serve.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	rt := &Router{
		cfg:    cfg,
		ring:   New(cfg.Seed, DefaultVnodes),
		byName: map[string]*backendState{},
		stop:   make(chan struct{}),
	}
	for _, b := range cfg.Shards {
		if b.Name == "" || b.URL == "" {
			return nil, fmt.Errorf("shard: router shard needs name and url, got %+v", b)
		}
		if _, dup := rt.byName[b.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate shard name %q", b.Name)
		}
		if err := rt.ring.Add(b.Name); err != nil {
			return nil, err
		}
		bs := &backendState{Backend: b, who: "shard " + b.Name, healthy: true}
		bs.URL = strings.TrimRight(bs.URL, "/")
		if !cfg.DisableBreaker {
			bs.breaker = resilience.NewBreaker(cfg.Breaker)
		}
		rt.byName[b.Name] = bs
	}
	reg := cfg.Obs
	reg.Help("piye_router_requests_total", "Routed queries by outcome (proxied includes refusals passed through).")
	reg.Help("piye_router_shard_requests_total", "Queries forwarded per shard.")
	reg.Help("piye_router_lookup_seconds", "Ring lookup latency.")
	reg.Help("piye_router_proxy_seconds", "Full proxy latency per routed query (retries included).")
	reg.Help("piye_router_unhealthy_total", "Queries refused because the owning shard failed its readiness probe.")
	rt.proxied = reg.Counter("piye_router_requests_total", "outcome", "proxied")
	rt.refused = reg.Counter("piye_router_requests_total", "outcome", "error")
	rt.unavail = reg.Counter("piye_router_requests_total", "outcome", "unavailable")
	rt.lookupSec = reg.Histogram("piye_router_lookup_seconds", nil)
	rt.proxySec = reg.Histogram("piye_router_proxy_seconds", nil)
	rt.healthGone = reg.Counter("piye_router_unhealthy_total")
	rt.perShard = map[string]*obs.Counter{}
	for _, b := range cfg.Shards {
		rt.perShard[b.Name] = reg.Counter("piye_router_shard_requests_total", "shard", b.Name)
	}
	if cfg.HealthEvery > 0 {
		for _, bs := range rt.byName {
			rt.probe(bs) // synchronous first probe: start with a real view
			rt.wg.Add(1)
			go rt.healthLoop(bs)
		}
	}
	return rt, nil
}

// Close stops the health pollers.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// healthLoop polls one shard's /readyz until Close.
func (rt *Router) healthLoop(bs *backendState) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probe(bs)
		}
	}
}

// probe runs one readiness check. A shard is ready when /readyz answers
// 200 within the poll period (bounded so a hung shard cannot stall the
// loop).
func (rt *Router) probe(bs *backendState) {
	timeout := rt.cfg.HealthEvery
	if timeout <= 0 {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := source.Exchange(ctx, http.MethodGet, bs.URL+"/readyz", nil, "", "")
	ok := false
	msg := ""
	if err != nil {
		msg = err.Error()
	} else {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
		if !ok {
			msg = strings.TrimSpace(string(body))
		}
	}
	bs.mu.Lock()
	bs.healthy = ok
	bs.lastErr = msg
	bs.mu.Unlock()
}

// isHealthy reports the last probe's verdict (always true without
// health polling).
func (bs *backendState) isHealthy() bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.healthy
}

// Ready is the router's own readiness: at least one shard is healthy.
func (rt *Router) Ready() error {
	for _, bs := range rt.byName {
		if bs.isHealthy() {
			return nil
		}
	}
	return fmt.Errorf("router: no healthy shard")
}

// maxAnswerBytes caps a shard answer the router buffers and forwards.
const maxAnswerBytes = 16 << 20

// proxyResult is one forwarded response, passed through verbatim.
type proxyResult struct {
	status      int
	body        []byte
	contentType string
}

// proxyError classifies a forwarding failure for the resilience layer's
// outcome rule: a 4xx and a not-owner 503 are the shard's own answer
// (never retried, proof of health) — retrying the same door cannot help
// — and any other 5xx is a retried failure.
type proxyError struct {
	shard  string
	status int
	result proxyResult
}

func (e *proxyError) Error() string {
	return fmt.Sprintf("shard %s: %d %s: %s", e.shard, e.status, http.StatusText(e.status), strings.TrimSpace(string(e.result.body)))
}

// notOwner reports the ownership refusal (wire contract with
// mediator.NotOwnerError).
func (e *proxyError) notOwner() bool {
	return e.status == http.StatusServiceUnavailable && bytes.Contains(e.result.body, []byte("is not the owner of requester"))
}

// Retryable implements the resilience layer's classification. A 4xx
// such as a privacy refusal is the shard's answer and passes straight
// back. Were refusals counted against the breaker, a requester probing
// their ledger limit could open the circuit and deny the whole shard.
func (e *proxyError) Retryable() bool {
	return e.status >= 500 && !e.notOwner()
}

// answerTooLarge is a shard answer over maxAnswerBytes. Asking again
// gets the same answer, so it is not retried; the client gets a 502.
type answerTooLarge struct{ shard string }

func (e answerTooLarge) Error() string {
	return fmt.Sprintf("shard %s: answer over %d bytes", e.shard, maxAnswerBytes)
}

func (answerTooLarge) Retryable() bool { return false }

// forward proxies one query to one shard as one guarded call (breaker
// admission once, the retry policy, one outcome report). A non-2xx answer
// comes back as a *proxyError carrying the verbatim response, so the
// caller can pass it through.
func (rt *Router) forward(ctx context.Context, bs *backendState, body []byte, requester string, trace *obs.Trace) (proxyResult, error) {
	ts := time.Now()
	res, err := resilience.Call(ctx, rt.cfg.Retry, bs.breaker, bs.who, func(ctx context.Context) (proxyResult, error) {
		return rt.attempt(ctx, bs, body, requester)
	})
	rt.perShard[bs.Name].Inc()
	trace.Record("proxy", bs.Name, ts, time.Since(ts), proxyOutcome(err))
	return res, err
}

// attempt is one HTTP exchange with a shard, over the tier's shared
// transport (source.Exchange): every query of the tier crosses this hop,
// and the stock transport's two idle connections per shard would re-dial
// most of them. Its deadline is the retry policy's, or the exchange's
// ceiling.
func (rt *Router) attempt(ctx context.Context, bs *backendState, body []byte, requester string) (proxyResult, error) {
	resp, err := source.Exchange(ctx, http.MethodPost, bs.URL+"/query", bytes.NewReader(body), requester, "")
	if err != nil {
		return proxyResult{}, fmt.Errorf("shard %s: %w", bs.Name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes+1))
	if err != nil {
		return proxyResult{}, fmt.Errorf("shard %s: reading response: %w", bs.Name, err)
	}
	if len(b) > maxAnswerBytes {
		return proxyResult{}, answerTooLarge{bs.Name}
	}
	out := proxyResult{
		status:      resp.StatusCode,
		body:        b,
		contentType: resp.Header.Get("Content-Type"),
	}
	if resp.StatusCode >= 400 {
		return out, &proxyError{shard: bs.Name, status: resp.StatusCode, result: out}
	}
	return out, nil
}

// serveQuery is the routing hot path: ring lookup, then forward to the
// owner.
func (rt *Router) serveQuery(w http.ResponseWriter, r *http.Request) {
	// An oversized PIQL text is refused with 413, never truncated and
	// forwarded as its prefix (the shards and sources apply the same cap).
	body, ok := source.ReadQueryBody(w, r)
	if !ok {
		return
	}
	requester := r.Header.Get("X-Requester")
	if requester == "" {
		http.Error(w, "router: missing X-Requester header", http.StatusBadRequest)
		return
	}
	trace := rt.cfg.Trace.Start(requester, string(body))

	ts := time.Now()
	owner, err := rt.ring.Lookup(requester)
	d := time.Since(ts)
	rt.lookupSec.Observe(d.Seconds())
	trace.Record("lookup", owner, ts, d, proxyOutcome(err))
	if err != nil {
		rt.finish(trace, rt.refused, obs.OutcomeError)
		http.Error(w, "router: "+err.Error(), http.StatusServiceUnavailable)
		return
	}

	tsProxy := time.Now()
	defer func() { rt.proxySec.Observe(time.Since(tsProxy).Seconds()) }()

	bs := rt.byName[owner]
	if rt.cfg.HealthEvery > 0 && !bs.isHealthy() {
		rt.healthGone.Inc()
		rt.finish(trace, rt.unavail, obs.OutcomeSkipped)
		http.Error(w, fmt.Sprintf("router: shard %s failed readiness; retry shortly", owner), http.StatusServiceUnavailable)
		return
	}

	res, err := rt.forward(r.Context(), bs, body, requester, trace)
	if err != nil {
		pe, ok := err.(*proxyError)
		if !ok {
			// Transport-level failure, open breaker or oversized answer:
			// nothing to pass through. 502 keeps it distinct from the
			// shards' own 503s.
			rt.finish(trace, rt.refused, obs.OutcomeError)
			http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
			return
		}
		// A shard's refusal (a 403 privacy refusal, a not-owner 503)
		// passes through verbatim: the retry loop discards the value on
		// error, so recover it from the error itself.
		res = pe.result
	}
	rt.finish(trace, rt.proxied, statusOutcome(res.status))
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// finish closes the trace and bumps the outcome counter (both nil-safe).
func (rt *Router) finish(trace *obs.Trace, c *obs.Counter, outcome string) {
	c.Inc()
	trace.Finish(outcome)
}

// proxyOutcome renders a forward error as a span outcome.
func proxyOutcome(err error) string {
	if err == nil {
		return obs.OutcomeAnswered
	}
	if pe, ok := err.(*proxyError); ok {
		return obs.RefusedOutcome(fmt.Sprintf("%d", pe.status))
	}
	return obs.OutcomeError
}

// statusOutcome renders the final passthrough status as a trace outcome.
func statusOutcome(status int) string {
	if status < 400 {
		return obs.OutcomeAnswered
	}
	return obs.RefusedOutcome(fmt.Sprintf("%d", status))
}

// shardView is one shard in the admin listing.
type shardView struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker,omitempty"`
	LastErr string `json:"last_error,omitempty"`
}

// Handler mounts the router's HTTP surface: POST /query (the proxy),
// GET /shards, plus the standard /healthz, /readyz, /metrics and
// /debug/trace.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", rt.serveQuery)

	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		var views []shardView
		for _, m := range rt.ring.Members() {
			bs := rt.byName[m.Name]
			bs.mu.Lock()
			v := shardView{Name: m.Name, URL: bs.Backend.URL, Healthy: bs.healthy, LastErr: bs.lastErr}
			bs.mu.Unlock()
			if bs.breaker != nil {
				v.Breaker = bs.breaker.State()
			}
			views = append(views, v)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"seed":   rt.ring.Seed(),
			"shards": views,
		})
	})

	obs.AttachHealth(mux, rt.Ready)
	obs.Attach(mux, rt.cfg.Obs, rt.cfg.Trace)
	return mux
}
