package mediator

// Tests for in-flight query coalescing (singleflight). The contract
// under test is the plan-cache contract extended to concurrent
// execution: sharing a pipeline run must never let a caller skip a
// per-requester control. Every coalesced caller — leader or follower —
// pays the loss-control check, the release-ledger check, and a history
// entry of its own.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// gatedEndpoint wraps an Endpoint and parks Query calls on a channel so
// a test can hold a leader's execution open while followers arrive. The
// call counter is the test's proof of sharing: callers minus calls is
// the number of executions coalescing saved.
type gatedEndpoint struct {
	source.Endpoint
	calls atomic.Int64
	gate  chan struct{} // nil = pass through; set between phases only
}

func (g *gatedEndpoint) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	g.calls.Add(1)
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.Endpoint.Query(ctx, piqlText, requester)
}

// coalescingMediator is figure1Mediator with Coalesce on, an endpoint
// wrapper, and a registry so tests can watch the leader/follower
// counters to sequence deterministically.
func coalescingMediator(t *testing.T, wrap func(source.Endpoint) source.Endpoint) (*Mediator, *obs.Registry) {
	t.Helper()
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var endpoint source.Endpoint = ep
	if wrap != nil {
		endpoint = wrap(ep)
	}
	reg := obs.NewRegistry()
	m, err := New(Config{
		Endpoints: []source.Endpoint{endpoint}, MaxDisclosure: 0.9,
		PlanCache: 64, Coalesce: true, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func followerCount(reg *obs.Registry) uint64 {
	return reg.Counter("piye_mediator_coalesce_total", "role", "follower").Value()
}

func ledgerEntries(m *Mediator, requester string) int {
	return len(m.ledger.releasesOf(requester))
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceSharesExecutionButEachCallerPaysControls is the pinning
// test: one gated execution, several coalesced callers, and the proof
// that sharing happened (one source call) without any caller skipping a
// control (one ledger release and one history entry per caller).
func TestCoalesceSharesExecutionButEachCallerPaysControls(t *testing.T) {
	g := &gatedEndpoint{gate: make(chan struct{})}
	m, reg := coalescingMediator(t, func(ep source.Endpoint) source.Endpoint {
		g.Endpoint = ep
		return g
	})
	const callers = 4
	var wg sync.WaitGroup
	outs := make([]*Integrated, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = m.Query(perTestQuery, "analyst")
		}(i)
	}
	// The leader is parked inside the endpoint; wait until every other
	// caller has joined its flight, then release.
	waitForCond(t, func() bool { return followerCount(reg) == callers-1 })
	close(g.gate)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(outs[i].Result.Rows) != 3 {
			t.Fatalf("caller %d: rows = %v", i, outs[i].Result.Rows)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("source executed %d times for %d coalesced callers, want 1", got, callers)
	}
	// Per-caller controls: every caller recorded its own release and its
	// own history entry, exactly as if it had run alone.
	if got := ledgerEntries(m, "analyst"); got != callers {
		t.Errorf("ledger holds %d releases, want one per caller (%d)", got, callers)
	}
	hist := m.History()
	if len(hist) != callers {
		t.Errorf("history has %d entries, want one per caller (%d)", len(hist), callers)
	}
	for _, e := range hist {
		if e.Requester != "analyst" {
			t.Errorf("history entry for %q", e.Requester)
		}
	}
}

// TestCoalesceNeverSharesAcrossRequesters pins the key construction:
// identical text from different requesters must run separate executions
// (per-source policy enforcement and the ledger see the true requester).
func TestCoalesceNeverSharesAcrossRequesters(t *testing.T) {
	g := &gatedEndpoint{gate: make(chan struct{})}
	m, reg := coalescingMediator(t, func(ep source.Endpoint) source.Endpoint {
		g.Endpoint = ep
		return g
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, req := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(i int, req string) {
			defer wg.Done()
			_, errs[i] = m.Query(perTestQuery, req)
		}(i, req)
	}
	// Both callers must reach the source concurrently — neither joined
	// the other's flight — before either is released.
	waitForCond(t, func() bool { return g.calls.Load() == 2 })
	close(g.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := followerCount(reg); got != 0 {
		t.Errorf("followers = %d, want 0 — executions were shared across requesters", got)
	}
	if ledgerEntries(m, "alice") != 1 || ledgerEntries(m, "bob") != 1 {
		t.Error("each requester should hold exactly its own release")
	}
}

// TestCoalesceRacesSchemaRefresh hammers coalesced queries while
// RefreshSchema concurrently purges the plan cache and forgets the
// flights in progress. Run under -race; the assertions are that no
// caller errors or skips recording and the mediator still answers
// afterwards (that no flight outlives its execution is the group's own
// test, qcache.TestFlight).
func TestCoalesceRacesSchemaRefresh(t *testing.T) {
	m, _ := coalescingMediator(t, nil)
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := fmt.Sprintf("req-%d", w)
			for i := 0; i < iters; i++ {
				if _, err := m.Query(perTestQuery, req); err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := m.RefreshSchema(); err != nil {
				t.Errorf("refresh %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if _, err := m.Query(perTestQuery, "after"); err != nil {
		t.Errorf("query after refresh storm: %v", err)
	}
	if got := len(m.History()); got != workers*iters+1 {
		t.Errorf("history has %d entries, want %d — a coalesced caller skipped recording", got, workers*iters+1)
	}
}
