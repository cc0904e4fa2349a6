// The sharded-tier end-to-end test: two HTTP source nodes, three
// mediator shards (each with its own durable state directory and its
// own ownership gate), and a piye-router front. What it locks in is the
// tier's core safety claim: sharding the tier never weakens a refusal.
// The Figure 1 combination refusal happens on the one shard that holds
// the requester's ledger, survives router retries, and cannot be undone
// from the public port, and a requester can never dodge it by reaching
// a shard that has not seen their history — misrouted queries answer
// 503 not-owner, never a fresh-ledger 200 and never a spurious 403.
package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/refusal"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
)

var shardPeers = []string{"shard-a", "shard-b", "shard-c"}

// newShardMediator builds one mediator shard over the given source
// nodes and serves it: durable state under dir, the ownership gate armed
// with the tier's peer list, and its own registry and tracer (each shard
// is its own process in deployment; sharing a registry would fuse their
// metrics).
func newShardMediator(t *testing.T, dir, id string, nodes map[string]*httptest.Server) (*mediator.Mediator, *httptest.Server) {
	t.Helper()
	var eps []source.Endpoint
	for _, name := range []string{"alpha", "beta"} {
		eps = append(eps, source.NewClient(nodes[name].URL, name))
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:         eps,
		LinkageSalt:       salt,
		MaxDisclosure:     0.9,
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
		Shard:      &mediator.ShardConfig{ID: id, Peers: shardPeers, Seed: shard.DefaultSeed},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	srv := httptest.NewServer(mediator.NewHandler(med))
	t.Cleanup(srv.Close)
	return med, srv
}

// hasHistory reports whether a shard's query history names the
// requester.
func hasHistory(m *mediator.Mediator, requester string) bool {
	return slices.ContainsFunc(m.History(), func(e mediator.HistoryEntry) bool { return e.Requester == requester })
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

// TestShardedTierEndToEnd drives the full tier through stickiness,
// misrouting, the Figure 1 refusal, an anonymous client's attempt to
// undo that refusal, and a shard death. Sub-steps share the deployment
// and run in order.
func TestShardedTierEndToEnd(t *testing.T) {
	nodes := map[string]*httptest.Server{}
	for _, name := range []string{"alpha", "beta"} {
		srv, _ := complianceNode(t, name)
		nodes[name] = srv
	}
	meds := map[string]*mediator.Mediator{}
	shardSrvs := map[string]*httptest.Server{}
	var backends []shard.Backend
	for _, id := range shardPeers {
		meds[id], shardSrvs[id] = newShardMediator(t, t.TempDir(), id, nodes)
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
			has := hasHistory(meds[id], req)
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
	// The membership view says nothing about any requester: it once
	// told any client whether a requester had ever queried the shard.
	held := ""
	for _, req := range requesters {
		if hasHistory(meds["shard-a"], req) {
			held = req
		}
	}
	resp, err := http.Get(shardSrvs["shard-a"].URL + "/shard/status?requester=" + held)
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]any
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || status["id"] != "shard-a" {
		t.Fatalf("GET /shard/status: %d %v %v", resp.StatusCode, status, err)
	}
	if _, ok := status["holds"]; ok {
		t.Errorf("GET /shard/status?requester= answers holds: %v", status)
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
	wantSample(t, scrape(t, shardSrvs["shard-b"].URL), `piye_shard_not_owner_total{shard="shard-b"}`, 1)

	// --- A forged re-route header changes nothing ----------------------

	// An older router sent X-Shard-Rerouted-From, and any client can. It
	// is ignored: the misrouted query is still refused as not-owner.
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
		t.Fatalf("forged re-route header answered %d %s, want 503 not-owner", fresp.StatusCode, fbody)
	}
	wantSample(t, scrape(t, shardSrvs["shard-b"].URL), `piye_shard_not_owner_total{shard="shard-b"}`, 2)
	if hasHistory(meds["shard-b"], stray) {
		t.Error("the non-owner recorded the misrouted requester")
	}

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

	// --- The public port cannot undo a refusal -------------------------

	// An anonymous client once drained a shard through the router's
	// public port, sent a newcomer it owned to a peer, and force-undrained
	// it: the newcomer's Figure 1(b) was then answered by a shard that
	// had never seen its 1(a). The probe is replayed here, the shard's own
	// routes too. No such route answers now, and the newcomer's pair is
	// refused like anyone's.
	probe := func(urls ...string) {
		t.Helper()
		for _, u := range urls {
			resp, err := http.Post(u, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("POST %s answered %d, want 404 or 405", u, resp.StatusCode)
			}
		}
	}
	newcomer := ownedBy(t, ref, "shard-a", "newcomer", 1)[0]
	probe(rtSrv.URL+"/shards/drain?name=shard-a", shardSrvs["shard-a"].URL+"/shard/drain")
	if code, body := postQuery(t, rtSrv.URL, perTestQuery, newcomer); code != http.StatusOK {
		t.Fatalf("newcomer's Figure 1a: %d %s", code, body)
	}
	probe(rtSrv.URL+"/shards/undrain?name=shard-a&force=1", shardSrvs["shard-a"].URL+"/shard/undrain?force=1")
	code, body = postQuery(t, rtSrv.URL, perHMOQuery, newcomer)
	if code != http.StatusForbidden || refusal.ClassifyString(body) != refusal.LedgerCombination {
		t.Fatalf("REFUSAL UNDONE FROM THE PUBLIC PORT: newcomer's Figure 1b answered %d %s, want 403 ledger-combination", code, body)
	}
	for _, id := range shardPeers {
		if has := hasHistory(meds[id], newcomer); has != (id == "shard-a") {
			t.Errorf("newcomer in %s's history: %v, want only on its owner shard-a", id, has)
		}
	}

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
