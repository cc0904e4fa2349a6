package e2e

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// slowComplianceNode is a compliance source whose /query answers after a
// fixed delay — a believably slow autonomous remote. The delay is what
// makes a concurrent burst of identical queries genuinely overlap inside
// the mediator, so coalescing is deterministic rather than a scheduling
// accident.
func slowComplianceNode(t *testing.T, name string, delay time.Duration) *httptest.Server {
	t.Helper()
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := source.NewHandler(local)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			time.Sleep(delay)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestAmortizationEndToEnd drives coalescing over real HTTP: a durable
// mediator with coalescing on, a slow remote source, and a gated burst
// of identical queries from one requester. It pins the operator-visible
// story: every caller answered, execution shared (coalesce counters on
// /metrics), audit per caller (history has one entry, and the WAL one
// fsynced record, per query).
func TestAmortizationEndToEnd(t *testing.T) {
	node := slowComplianceNode(t, "alpha", 50*time.Millisecond)

	dir := t.TempDir()
	reg := obs.NewRegistry()
	med, err := mediator.New(mediator.Config{
		Endpoints:     []source.Endpoint{source.NewClient(node.URL, "alpha")},
		LinkageSalt:   salt,
		MaxDisclosure: 0.9,
		SourceTimeout: 10 * time.Second,
		PlanCache:     64,
		Coalesce:      true,
		Durability:    &mediator.DurabilityConfig{Dir: dir},
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	medSrv := httptest.NewServer(mediator.NewHandler(med))
	t.Cleanup(medSrv.Close)

	// One identical query, eight concurrent callers, one requester. The
	// release is an aggregate the ledger allows any number of times (an
	// identical equation adds no disclosure).
	const burst = 8
	gate := make(chan struct{})
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			req, err := http.NewRequest(http.MethodPost, medSrv.URL+"/query", strings.NewReader(perTestQuery))
			if err != nil {
				errs <- err
				return
			}
			req.Header.Set("X-Requester", "analyst")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("burst query: %d %s", resp.StatusCode, body)
			}
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Execution shared: every caller took a coalesce role, and with the
	// source parked for 50ms at least one follower joined the leader's
	// flight. (The exact split is scheduling; the sum is not.)
	samples := scrape(t, medSrv.URL)
	leaders := samples[`piye_mediator_coalesce_total{role="leader"}`]
	followers := samples[`piye_mediator_coalesce_total{role="follower"}`]
	if leaders+followers != burst {
		t.Errorf("coalesce roles sum to %v, want %d", leaders+followers, burst)
	}
	wantAtLeast(t, samples, `piye_mediator_coalesce_total{role="leader"}`, 1)
	wantAtLeast(t, samples, `piye_mediator_coalesce_total{role="follower"}`, 1)
	wantSample(t, samples, `piye_mediator_queries_total{outcome="answered"}`, burst)

	// Controls per caller: one history entry (and its WAL record) per
	// coalesced caller, not per execution.
	if got := len(med.History()); got != burst {
		t.Errorf("history has %d entries, want %d (per-caller audit lost)", got, burst)
	}

	// The WAL's counters are live: appends flowed (ledger release +
	// history records) and each paid its own fsync.
	wantAtLeast(t, samples, `piye_wal_appends_total{log="mediator"}`, float64(burst))
	wantAtLeast(t, samples, `piye_wal_fsyncs_total{log="mediator"}`, float64(burst))
	if _, ok := samples[`piye_plan_cache_hit_ratio{scope="mediator"}`]; !ok {
		t.Error("piye_plan_cache_hit_ratio absent from scrape")
	}

	// The durable tail of a coalesced burst still recovers: a restart
	// replays one release equation and eight history entries.
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}
	med2, err := mediator.New(mediator.Config{
		Endpoints:     []source.Endpoint{source.NewClient(node.URL, "alpha")},
		LinkageSalt:   salt,
		MaxDisclosure: 0.9,
		Durability:    &mediator.DurabilityConfig{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if got := len(med2.History()); got != burst {
		t.Errorf("recovered history has %d entries, want %d", got, burst)
	}
	// And the replayed sigma release still arms the ledger: the Figure 1
	// combination is refused after restart, coalesced burst or not.
	if _, err := med2.Query(perHMOQuery, "analyst"); err == nil {
		t.Error("Figure 1 combination must still be refused after recovering a coalesced burst")
	}
}
