// The sharded-tier end-to-end test: two HTTP source nodes, three
// mediator shards (each with its own durable state directory and its
// own ownership gate), and a piye-router front. What it locks in is the
// PR's core safety claim: sharding the tier never weakens a refusal.
// The Figure 1 combination refusal happens on the one shard that holds
// the requester's ledger, survives router retries, survives a drain,
// and a requester can never dodge it by reaching a shard that has not
// seen their history — misrouted queries answer 503 not-owner, never a
// fresh-ledger 200 and never a spurious 403.
package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
)

var shardPeers = []string{"shard-a", "shard-b", "shard-c"}

// newShardMediator builds one mediator shard over the given source
// nodes and serves it on srv, whose listener is already bound: durable
// state under dir, the ownership gate armed with the tier's peer list
// and URLs, and its own registry and tracer (each shard is its own
// process in deployment; sharing a registry would fuse their metrics).
func newShardMediator(t *testing.T, dir, id string, nodes map[string]*httptest.Server, srv *httptest.Server, peerURLs map[string]string) {
	t.Helper()
	var eps []source.Endpoint
	for _, name := range []string{"alpha", "beta"} {
		eps = append(eps, source.NewClient(nodes[name].URL, name))
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:         eps,
		LinkageSalt:       salt,
		MaxDisclosure:     0.9,
		LedgerTolerance:   0.05,
		SourceTimeout:     10 * time.Second,
		WarehouseCapacity: 8,
		WarehouseTTL:      100,
		PlanCache:         64,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute},
		},
		Durability: &mediator.DurabilityConfig{Dir: dir},
		Obs:        obs.NewRegistry(),
		Trace:      obs.NewTracer(32),
		Shard: &mediator.ShardConfig{
			ID:       id,
			Peers:    shardPeers,
			Seed:     shard.DefaultSeed,
			PeerURLs: peerURLs,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	srv.Config.Handler = mediator.NewHandler(med)
	srv.Start()
	t.Cleanup(srv.Close)
}

// holds reports whether one shard holds control state (a ledger or
// history entry) for the requester, read from its /shard/status.
func holds(t *testing.T, base, requester string) bool {
	t.Helper()
	resp, err := http.Get(base + "/shard/status?requester=" + url.QueryEscape(requester))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st mediator.ShardStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/shard/status: %d %v", base, resp.StatusCode, err)
	}
	return st.Holds
}

// ownedBy finds n fresh requester names the reference ring places on
// the given shard.
func ownedBy(t *testing.T, ring *shard.Ring, owner, prefix string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 10000; i++ {
		cand := fmt.Sprintf("%s-%04d", prefix, i)
		if o, err := ring.Lookup(cand); err != nil {
			t.Fatal(err)
		} else if o == owner {
			out = append(out, cand)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d requesters owned by %s", len(out), n, owner)
	}
	return out
}

// routerHealthy decodes the router's GET /shards admin view: whether
// each shard passed its last readiness probe.
func routerHealthy(t *testing.T, base string) map[string]bool {
	t.Helper()
	resp, err := http.Get(base + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Shards []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, s := range view.Shards {
		out[s.Name] = s.Healthy
	}
	return out
}

// shardDraining reads a shard's drain state where operators read it: the
// shard's own GET /shard/status.
func shardDraining(t *testing.T, base string) bool {
	t.Helper()
	resp, err := http.Get(base + "/shard/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st mediator.ShardStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Draining
}

// TestShardedTierEndToEnd drives the full tier through stickiness,
// misrouting, the Figure 1 refusal, drain/re-route, and a shard death.
// Sub-steps share the deployment and run in order.
func TestShardedTierEndToEnd(t *testing.T) {
	nodes := map[string]*httptest.Server{}
	for _, name := range []string{"alpha", "beta"} {
		srv, _ := complianceNode(t, name)
		nodes[name] = srv
	}

	// Peer URLs arm the drain-claim verification and the undrain strand
	// check. Every shard's listener is bound first, so each shard is
	// built knowing all of them.
	shardSrvs := map[string]*httptest.Server{}
	peerURLs := map[string]string{}
	for _, id := range shardPeers {
		shardSrvs[id] = httptest.NewUnstartedServer(nil)
		peerURLs[id] = "http://" + shardSrvs[id].Listener.Addr().String()
	}
	for _, id := range shardPeers {
		newShardMediator(t, t.TempDir(), id, nodes, shardSrvs[id], peerURLs)
	}

	var backends []shard.Backend
	for _, id := range shardPeers {
		backends = append(backends, shard.Backend{Name: id, URL: shardSrvs[id].URL})
	}
	rtReg := obs.NewRegistry()
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:      backends,
		Seed:        shard.DefaultSeed,
		Retry:       resilience.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Breaker:     resilience.BreakerConfig{FailureThreshold: 3, OpenFor: 200 * time.Millisecond},
		HealthEvery: 100 * time.Millisecond,
		Obs:         rtReg,
		Trace:       obs.NewTracer(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtSrv := httptest.NewServer(rt.Handler())
	defer rtSrv.Close()

	// The reference ring: what every shard and the router compute.
	ref := shard.New(shard.DefaultSeed, 0)
	for _, id := range shardPeers {
		if err := ref.Add(id); err != nil {
			t.Fatal(err)
		}
	}

	// --- Requester stickiness through the router ------------------------

	requesters := []string{}
	for i := 0; i < 12; i++ {
		requesters = append(requesters, fmt.Sprintf("clinician-%02d", i))
	}
	for _, req := range requesters {
		for rep := 0; rep < 2; rep++ {
			if code, body := postQuery(t, rtSrv.URL, perTestQuery, req); code != http.StatusOK {
				t.Fatalf("routed query for %s: %d %s", req, code, body)
			}
		}
	}
	for _, req := range requesters {
		owner, err := ref.Lookup(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range shardPeers {
			has := holds(t, shardSrvs[id].URL, req)
			if id == owner && !has {
				t.Errorf("requester %s missing from owner %s's history", req, id)
			}
			if id != owner && has {
				t.Errorf("requester %s leaked onto non-owner %s", req, id)
			}
		}
	}
	// Every shard's trace carries its shard id.
	for _, id := range shardPeers {
		traces := getTraces(t, shardSrvs[id].URL, 1)
		if len(traces) == 1 && traces[0].Shard != id {
			t.Errorf("shard %s stamps traces with %q", id, traces[0].Shard)
		}
	}

	// --- Misrouted requester: 503 not-owner, never 403 ------------------

	stray := ownedBy(t, ref, "shard-a", "stray", 1)[0]
	code, body := postQuery(t, shardSrvs["shard-b"].URL, perTestQuery, stray)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("wrong-shard query answered %d %s, want 503 (403 would masquerade as a privacy refusal)", code, body)
	}
	if !strings.Contains(body, "is not the owner of requester") {
		t.Errorf("not-owner refusal body: %q", body)
	}
	bSamples := scrape(t, shardSrvs["shard-b"].URL)
	wantAtLeast(t, bSamples, `piye_shard_not_owner_total{shard="shard-b"}`, 1)
	wantSample(t, bSamples, `piye_shard_draining{shard="shard-b"}`, 0)

	// --- Forged drain claim: the header is not a credential --------------

	// The HTTP surface accepts X-Shard-Rerouted-From from anyone, so a
	// client can name the true owner and knock on a non-owner's door
	// directly. shard-a is NOT draining: shard-b must confirm the claim
	// against shard-a's own /shard/status and refuse — serving would
	// hand the requester a fresh ledger, the exact refusal-weakening
	// sharding exists to prevent.
	freq, err := http.NewRequest(http.MethodPost, shardSrvs["shard-b"].URL+"/query", strings.NewReader(perTestQuery))
	if err != nil {
		t.Fatal(err)
	}
	freq.Header.Set("X-Requester", stray)
	freq.Header.Set("X-Shard-Rerouted-From", "shard-a")
	fresp, err := http.DefaultClient.Do(freq)
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(fbody), "is not the owner of requester") {
		t.Fatalf("forged drain claim against a non-draining owner answered %d %s, want 503 not-owner", fresp.StatusCode, fbody)
	}
	bSamples = scrape(t, shardSrvs["shard-b"].URL)
	wantAtLeast(t, bSamples, `piye_shard_reroute_denied_total{shard="shard-b"}`, 1)

	// --- Figure 1 refusal on the owning shard, through the router -------

	snooper := ownedBy(t, ref, "shard-c", "snooper", 1)[0]
	if code, body := postQuery(t, rtSrv.URL, perTestQuery, snooper); code != http.StatusOK {
		t.Fatalf("Figure 1a release should pass: %d %s", code, body)
	}
	code, body = postQuery(t, rtSrv.URL, perHMOQuery, snooper)
	if code != http.StatusForbidden || !strings.Contains(body, "combined") {
		t.Fatalf("Figure 1 combination must be refused through the router: %d %s", code, body)
	}
	// A retry cannot shake the refusal loose (the router must not have
	// retried the 403 onto some other shard, and the ledger is durable).
	code, body = postQuery(t, rtSrv.URL, perHMOQuery, snooper)
	if code != http.StatusForbidden || !strings.Contains(body, "combined") {
		t.Fatalf("repeated Figure 1b must stay refused: %d %s", code, body)
	}

	// --- Drain: the refusal survives, new requesters re-route -----------

	resp, err := http.Post(rtSrv.URL+"/shards/drain?name=shard-c", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drain admin answered %d", resp.StatusCode)
	}
	if !shardDraining(t, shardSrvs["shard-c"].URL) {
		t.Fatal("shard-c's own status does not show it draining")
	}
	cSamples := scrape(t, shardSrvs["shard-c"].URL)
	wantSample(t, cSamples, `piye_shard_draining{shard="shard-c"}`, 1)

	// THE acceptance check: the snooper's ledger refusal is not lost
	// across the drain. The draining shard still owns the snooper's
	// state and still refuses the combination.
	code, body = postQuery(t, rtSrv.URL, perHMOQuery, snooper)
	if code != http.StatusForbidden || !strings.Contains(body, "combined") {
		t.Fatalf("REFUSAL LOST ACROSS DRAIN: Figure 1b answered %d %s (a drain must never reset the ledger)", code, body)
	}

	// A new requester owned by the draining shard re-routes to the
	// drain-adjusted owner and answers 200 there.
	newcomer := ownedBy(t, ref, "shard-c", "newcomer", 1)[0]
	adjOwner, err := ref.LookupExcluding(newcomer, []string{"shard-c"})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postQuery(t, rtSrv.URL, perTestQuery, newcomer); code != http.StatusOK {
		t.Fatalf("drain re-route for %s: %d %s", newcomer, code, body)
	}
	if !holds(t, shardSrvs[adjOwner].URL, newcomer) {
		t.Errorf("newcomer did not land on the drain-adjusted owner %s", adjOwner)
	}
	if holds(t, shardSrvs["shard-c"].URL, newcomer) {
		t.Error("newcomer was served by the draining shard")
	}
	adjSamples := scrape(t, shardSrvs[adjOwner].URL)
	wantAtLeast(t, adjSamples, fmt.Sprintf(`piye_shard_rerouted_accepted_total{shard=%q}`, adjOwner), 1)
	cSamples = scrape(t, shardSrvs["shard-c"].URL)
	wantAtLeast(t, cSamples, `piye_shard_draining_refusals_total{shard="shard-c"}`, 1)

	// Undrain is NOT the safe reverse of drain any more: the newcomer's
	// ledger and history now live on the drain-adjusted owner, and
	// undraining would hand the newcomer back to shard-c's fresh
	// ledger. The shard checks its peers and refuses (409, passed back
	// through the router verbatim), naming the stranded requester.
	resp, err = http.Post(rtSrv.URL+"/shards/undrain?name=shard-c", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ubody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("undrain with stranded re-routed state answered %d %s, want 409", resp.StatusCode, ubody)
	}
	if !strings.Contains(string(ubody), "undrain refused") || !strings.Contains(string(ubody), newcomer) {
		t.Fatalf("undrain refusal %q does not name the stranded requester %s", ubody, newcomer)
	}
	if !shardDraining(t, shardSrvs["shard-c"].URL) {
		t.Fatal("refused undrain cleared shard-c's drain")
	}

	// The operator force-undrains (accepting or having migrated the
	// newcomer's state); established state never moved, so the
	// snooper's ledger refusal survives.
	resp, err = http.Post(rtSrv.URL+"/shards/undrain?name=shard-c&force=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("forced undrain admin answered %d", resp.StatusCode)
	}
	code, body = postQuery(t, rtSrv.URL, perHMOQuery, snooper)
	if code != http.StatusForbidden || !strings.Contains(body, "combined") {
		t.Fatalf("refusal lost across undrain: %d %s", code, body)
	}

	// --- Two shards drain at once: a draining shard adopts no one ----------

	// A newcomer ranked shard-b -> shard-a -> shard-c while a and b both
	// drain: shard-b refuses it, and so must shard-a on the re-route — a
	// draining shard that adopted it would build up ledger state it was
	// told to shed. It lands on shard-c, asserting both.
	var twoDrained string
	for _, cand := range ownedBy(t, ref, "shard-b", "twodrain", 16) {
		if next, _ := ref.LookupExcluding(cand, []string{"shard-b"}); next == "shard-a" {
			twoDrained = cand
			break
		}
	}
	if twoDrained == "" {
		t.Fatal("no requester ranked shard-b -> shard-a among 16 candidates")
	}
	admin := func(op string) {
		t.Helper()
		resp, err := http.Post(rtSrv.URL+"/shards/"+op, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s answered %d", op, resp.StatusCode)
		}
	}
	admin("drain?name=shard-a")
	admin("drain?name=shard-b")
	if code, body := postQuery(t, rtSrv.URL, perTestQuery, twoDrained); code != http.StatusOK {
		t.Fatalf("newcomer with two shards draining answered %d %s", code, body)
	}
	for id, want := range map[string]bool{"shard-a": false, "shard-b": false, "shard-c": true} {
		if got := holds(t, shardSrvs[id].URL, twoDrained); got != want {
			t.Fatalf("newcomer in %s's history: %v, want %v (only shard-c may adopt it)", id, got, want)
		}
	}
	admin("undrain?force=1&name=shard-a")
	admin("undrain?force=1&name=shard-b")

	// --- Dead shard: its requesters 503, everyone else keeps working ----

	shardSrvs["shard-b"].CloseClientConnections()
	shardSrvs["shard-b"].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if !routerHealthy(t, rtSrv.URL)["shard-b"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never noticed shard-b dying")
		}
		time.Sleep(20 * time.Millisecond)
	}
	orphan := ownedBy(t, ref, "shard-b", "orphan", 1)[0]
	code, body = postQuery(t, rtSrv.URL, perTestQuery, orphan)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead shard's requester answered %d %s, want 503 (its ledger is unreachable; serving elsewhere could weaken a refusal)", code, body)
	}
	survivor := ownedBy(t, ref, "shard-a", "survivor", 1)[0]
	if code, body := postQuery(t, rtSrv.URL, perTestQuery, survivor); code != http.StatusOK {
		t.Fatalf("surviving shard's requester should keep working: %d %s", code, body)
	}
}
