// Failover end to end: a primary mediator and a warm standby over real
// HTTP, live query load, a primary kill, a fenced promotion, and a
// revived old primary that must be refused — asserted through the same
// /metrics, /readyz, /replica/status and ledger surfaces an operator
// would use.
package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
)

// newReplicaMediator builds one mediator of the failover pair. An empty
// primaryURL makes it the primary; otherwise it is a warm standby of
// that URL. Fast heartbeats keep the test quick. tr, when not nil, keys
// the requester pseudonyms /history shows.
func newReplicaMediator(t *testing.T, dir string, reg *obs.Registry, tr *obs.Tracer, nodes map[string]*httptest.Server, primaryURL string) *mediator.Mediator {
	t.Helper()
	var eps []source.Endpoint
	for _, name := range []string{"alpha", "beta", "gamma"} {
		eps = append(eps, source.NewClient(nodes[name].URL, name))
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:       eps,
		LinkageSalt:     salt,
		MaxDisclosure:   0.9,
		LedgerTolerance: 0.05,
		SourceTimeout:   10 * time.Second,
		PlanCache:       64,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 10, OpenFor: time.Minute},
		},
		Durability: &mediator.DurabilityConfig{Dir: dir},
		Replica: &mediator.ReplicaConfig{
			PrimaryURL: primaryURL,
			Heartbeat:  20 * time.Millisecond,
			Reconnect:  20 * time.Millisecond,
		},
		Obs:   reg,
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// serveAt serves h on a specific address, retrying the bind briefly —
// the revived old primary must come back on the address the fencer and
// the standby already know.
func serveAt(t *testing.T, addr string, h http.Handler) *httptest.Server {
	t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("binding %s: %v", addr, err)
	}
	srv := httptest.NewUnstartedServer(h)
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	return srv
}

// waitReady polls /readyz until it answers 200 — the same startup wait a
// deployment script or orchestrator performs.
func waitReady(t *testing.T, base, who string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, body)
		} else {
			last = err.Error()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became ready: %s", who, last)
}

// replicaStatus fetches /replica/status.
func replicaStatus(t *testing.T, base string) mediator.ReplicaStatus {
	t.Helper()
	resp, err := http.Get(base + "/replica/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st mediator.ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// tryQuery is postQuery without t.Fatal — load goroutines tolerate the
// failover window.
func tryQuery(base, query, requester string) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader(query))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("X-Requester", requester)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), nil
}

func TestFailoverUnderLoadEndToEnd(t *testing.T) {
	nodes := map[string]*httptest.Server{}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		srv, _ := complianceNode(t, name)
		nodes[name] = srv
		// Source liveness is part of the harness startup wait too.
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("source %s health: %v %v", name, resp, err)
		}
		resp.Body.Close()
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	regA, regB := obs.NewRegistry(), obs.NewRegistry()

	// --- Primary A up, standby B tailing it -----------------------------

	medA := newReplicaMediator(t, dirA, regA, nil, nodes, "")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA := l.Addr().String()
	l.Close()
	srvA := serveAt(t, addrA, mediator.NewHandler(medA))
	urlA := "http://" + addrA
	waitReady(t, urlA, "primary A")

	trB := obs.NewTracer(8)
	medB := newReplicaMediator(t, dirB, regB, trB, nodes, urlA)
	defer medB.Close()
	srvB := httptest.NewServer(mediator.NewHandler(medB))
	defer srvB.Close()
	urlB := srvB.URL

	// The release granted BEFORE failover: snooper takes Figure 1a on A.
	if code, body := postQuery(t, urlA, perTestQuery, "snooper"); code != http.StatusOK {
		t.Fatalf("pre-failover release should pass: %d %s", code, body)
	}
	waitReady(t, urlB, "standby B")

	// A standby refuses queries (503, retry against the primary) and
	// counts the refusal under its own reason.
	code, body := postQuery(t, urlB, perTestQuery, "snooper")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "not primary") {
		t.Fatalf("standby must refuse with 503 not-primary: %d %s", code, body)
	}
	wantAtLeast(t, scrape(t, urlB), `piye_mediator_refusals_total{reason="not-primary"}`, 1)
	if st := replicaStatus(t, urlB); st.Role != "standby" || st.Replication == nil || !st.Replication.CaughtUp {
		t.Fatalf("standby status = %+v", st)
	}

	// --- Live load, then kill the primary -------------------------------

	var answered, lost atomic.Int64
	target := atomic.Value{}
	target.Store(urlA)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, _, err := tryQuery(target.Load().(string), perTestQuery, fmt.Sprintf("load-%d-%d", w, i))
				if err == nil && code == http.StatusOK {
					answered.Add(1)
				} else {
					lost.Add(1)
					time.Sleep(5 * time.Millisecond) // the dead-primary window
				}
			}
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for answered.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if answered.Load() < 3 {
		t.Fatal("load never got going against the primary")
	}

	// Kill A: connections die mid-flight, the process exits.
	srvA.CloseClientConnections()
	srvA.Close()
	if err := medA.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Promote B; load continues against it ---------------------------

	resp, err := http.Post(urlB+"/replica/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !promoted.Promoted || promoted.Epoch != 2 {
		t.Fatalf("promote = %+v, want epoch 2", promoted)
	}
	waitReady(t, urlB, "promoted B")
	target.Store(urlB)

	preB := answered.Load()
	deadline = time.Now().Add(10 * time.Second)
	for answered.Load() < preB+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if answered.Load() < preB+3 {
		t.Fatal("the promoted standby never served the load")
	}
	t.Logf("load: %d answered, %d lost during failover", answered.Load(), lost.Load())

	// --- No double-grant: the pre-failover release binds B's ledger -----

	code, body = postQuery(t, urlB, perHMOQuery, "snooper")
	if code != http.StatusForbidden || !strings.Contains(body, "combined") {
		t.Fatalf("promoted standby must refuse the replicated Figure 1 combination: %d %s", code, body)
	}
	// A requester with no replicated releases is unaffected.
	if code, body := postQuery(t, urlB, perHMOQuery, "bystander"); code != http.StatusOK {
		t.Fatalf("bystander on B: %d %s", code, body)
	}
	// The replicated history carries the pre-failover query.
	hresp, err := http.Get(urlB + "/history")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(hbody), trB.Pseudonym("snooper")) {
		t.Error("standby history lost the pre-failover entry")
	}

	samplesB := scrape(t, urlB)
	wantSample(t, samplesB, `piye_replica_promotions_total`, 1)
	wantSample(t, samplesB, `piye_replica_epoch`, 2)
	wantSample(t, samplesB, `piye_replica_role`, 0) // primary
	wantAtLeast(t, samplesB, `piye_replica_frames_applied_total`, 1)

	// --- The revived old primary is fenced, its writes rejected ---------

	// A restarted process starts with a fresh registry; reusing medA's
	// would leave its gauges reading the dead node's closures.
	regA2 := obs.NewRegistry()
	medA2 := newReplicaMediator(t, dirA, regA2, nil, nodes, "")
	defer medA2.Close()
	srvA2 := serveAt(t, addrA, mediator.NewHandler(medA2))
	defer srvA2.Close()

	// B's background fencer has been retrying this address since the
	// promotion; once A answers, the fence lands and A demotes itself.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if replicaStatus(t, urlA).Role == "fenced" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stA := replicaStatus(t, urlA)
	if stA.Role != "fenced" || stA.Epoch != 2 {
		t.Fatalf("revived old primary = %+v, want fenced at epoch 2", stA)
	}

	// Every write from the stale generation is rejected — the release
	// snooper already burned, and any fresh grant that B's ledger would
	// never learn about.
	code, body = postQuery(t, urlA, perHMOQuery, "snooper")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "fenced") {
		t.Fatalf("fenced old primary must refuse with 503 fenced: %d %s", code, body)
	}
	if code, _ := postQuery(t, urlA, perTestQuery, "opportunist"); code != http.StatusServiceUnavailable {
		t.Fatalf("fenced old primary granted a fresh release: %d", code)
	}

	samplesA := scrape(t, urlA)
	wantSample(t, samplesA, `piye_replica_role`, 3) // fenced
	wantSample(t, samplesA, `piye_replica_epoch`, 2)
	wantAtLeast(t, samplesA, `piye_replica_fences_total`, 1)
	wantAtLeast(t, samplesA, `piye_mediator_refusals_total{reason="fenced"}`, 2)

	// The successor saw its fence acknowledged.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v := scrape(t, urlB)[`piye_replica_fence_acks_total`]; v >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("the promoted standby never received the old primary's fence acknowledgement")
}
