package e2e

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/refusal"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// A repeated aggregate revalidates at each source: the mediator's client
// holds the memoised answer it last read, and a source that grants the
// asking requester the same bytes answers 304 (DESIGN.md §14,
// Revalidation). These tests hold the mediator's answers to the true
// ones across an Insert and a restart, keep the ledger refusing Figure 1
// over revalidated answers, and pin that no one changes a node that is
// shared between calls.

// complianceHost is a compliance source behind a swappable handler, as a
// daemon restarted behind the same address is.
type complianceHost struct {
	name    string
	table   *relational.Table
	reg     *obs.Registry
	srv     *httptest.Server
	handler atomic.Pointer[http.Handler]
}

func newComplianceHost(t *testing.T, name string) *complianceHost {
	t.Helper()
	cfg := complianceConfig(t, name)
	tab, err := cfg.Catalog.Table("compliance")
	if err != nil {
		t.Fatal(err)
	}
	h := &complianceHost{name: name, table: tab}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(h.srv.Close)
	h.start(t)
	return h
}

// start serves a new Source over the host's table, with a new registry.
func (h *complianceHost) start(t *testing.T) {
	t.Helper()
	cfg := complianceConfig(t, h.name)
	cat := relational.NewCatalog()
	if err := cat.Add(h.table); err != nil {
		t.Fatal(err)
	}
	h.reg = obs.NewRegistry()
	cfg.Catalog, cfg.Obs, cfg.PlanCache = cat, h.reg, 16
	src, err := source.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	handler := source.NewHandler(local)
	h.handler.Store(&handler)
}

// notModified reads the host's piye_source_query_not_modified_total.
func (h *complianceHost) notModified() uint64 {
	return h.reg.Counter("piye_source_query_not_modified_total", "source", h.name).Value()
}

// ledgeredMediator is a mediator with the ledger on over eps, reporting
// to reg (nil for none).
func ledgeredMediator(t *testing.T, eps []source.Endpoint, reg *obs.Registry) *mediator.Mediator {
	t.Helper()
	med, err := mediator.New(mediator.Config{
		Endpoints:     eps,
		LinkageSalt:   salt,
		Obs:           reg,
		SourceTimeout: 10 * time.Second,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med
}

// integrated runs query on m as requester and returns its result's
// encoding.
func integrated(t *testing.T, m *mediator.Mediator, query, requester string) string {
	t.Helper()
	out, err := m.Query(query, requester)
	if err != nil {
		t.Fatalf("%s: %v", requester, err)
	}
	if len(out.Denied) > 0 {
		t.Fatalf("%s: denied by %v", requester, out.Denied)
	}
	return out.Result.ToNode().String()
}

func TestWarmLedgeredQueryRevalidatesAtEachSource(t *testing.T) {
	var hosts []*complianceHost
	var eps []source.Endpoint
	for _, name := range []string{"alpha", "beta", "gamma"} {
		h := newComplianceHost(t, name)
		hosts = append(hosts, h)
		eps = append(eps, source.NewClient(h.srv.URL, name))
	}
	reg := obs.NewRegistry()
	med := ledgeredMediator(t, eps, reg)
	// memoServed reads how many answers the mediator published from its
	// kept integration.
	memoServed := func() uint64 {
		return reg.Counter("piye_mediator_queries_total", "outcome", "memo").Value()
	}
	// oracle is the answer a fresh mediator, whose clients hold nothing,
	// integrates from the hosts as they are now.
	asked := 0
	oracle := func() string {
		var fresh []source.Endpoint
		for _, h := range hosts {
			fresh = append(fresh, source.NewClient(h.srv.URL, h.name))
		}
		asked++
		return integrated(t, ledgeredMediator(t, fresh, nil), perTestQuery, fmt.Sprintf("oracle-%d", asked))
	}
	// ask runs Figure 1a for a new requester and checks it against the
	// oracle, and which hosts answered it with a 304. The mediator
	// publishes its kept integration exactly when all three did.
	requesters := 0
	ask := func(when string, want string, revalidated ...bool) {
		t.Helper()
		before := make([]uint64, len(hosts))
		for i, h := range hosts {
			before[i] = h.notModified()
		}
		memoBefore := memoServed()
		requesters++
		if got := integrated(t, med, perTestQuery, fmt.Sprintf("r%d", requesters)); got != want {
			t.Errorf("%s: the integrated answer is not the oracle's:\n%s\nwant\n%s", when, got, want)
		}
		for i, h := range hosts {
			var n304 uint64
			if revalidated[i] {
				n304 = 1
			}
			if d := h.notModified() - before[i]; d != n304 {
				t.Errorf("%s: %s answered %d 304s, want %d", when, h.name, d, n304)
			}
		}
		var memo uint64
		if !slices.Contains(revalidated, false) {
			memo = 1
		}
		if d := memoServed() - memoBefore; d != memo {
			t.Errorf("%s: %d answers published from the kept integration, want %d", when, d, memo)
		}
	}

	want := oracle()
	ask("cold", want, false, false, false)
	ask("warm", want, true, true, true)

	// Fresh requesters are each served 1(a) from the kept integration,
	// and each is recorded in the ledger: the 1(b) each asks after it is
	// refused as a combination.
	var served []string
	for i := 0; i < 3; i++ {
		ask(fmt.Sprintf("memo-served %d", i), want, true, true, true)
		served = append(served, fmt.Sprintf("r%d", requesters))
	}
	for _, r := range served {
		_, err := med.Query(perHMOQuery, r)
		if got := refusal.Classify(err); got != refusal.LedgerCombination {
			t.Errorf("%s's Figure 1b after a memo-served 1a: %v (%s), want %s", r, err, got, refusal.LedgerCombination)
		}
	}
	ask("after the refused 1bs", want, false, false, false)

	// The ledger still refuses Figure 1b to a requester who holds 1a,
	// with 1a's parts served as 304s.
	if _, err := med.Query(perHMOQuery, fmt.Sprintf("r%d", requesters)); err == nil {
		t.Fatal("Figure 1 combination must be refused over revalidated answers")
	}
	// 1b took each client's slot, so the next 1a ships again.
	ask("after 1b", want, false, false, false)
	ask("warm after 1b", want, true, true, true)

	if err := hosts[0].table.Insert(hosts[0].table.Rows()[0]); err != nil {
		t.Fatal(err)
	}
	changed := oracle()
	if changed == want {
		t.Fatal("an Insert into alpha left Figure 1a's answer as it was")
	}
	ask("after an Insert into alpha", changed, false, true, true)
	ask("warm after the Insert", changed, true, true, true)

	// alpha restarted over the same rows answers with the same bytes, so
	// the client's held answer is revalidated.
	hosts[0].start(t)
	ask("after alpha restarted", changed, true, true, true)
}

// A node a memoised answer shares between calls is read by everyone and
// changed by no one: Figure 1a, ledgered, through a mediator twice over
// Local endpoints and twice over HTTP, leaves the plan memo's node and
// each client's held node as they were, byte for byte.
func TestSharedAnswerNodesAreNeverChanged(t *testing.T) {
	ctx := context.Background()
	var locals, clients []source.Endpoint
	for _, name := range []string{"alpha", "beta", "gamma"} {
		cfg := complianceConfig(t, name)
		cfg.PlanCache = 16
		src, err := source.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		local, err := source.NewLocal(src, salt, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(source.NewHandler(local))
		t.Cleanup(srv.Close)
		locals = append(locals, local)
		clients = append(clients, source.NewClient(srv.URL, name))
	}
	for _, tc := range []struct {
		name string
		eps  []source.Endpoint
	}{{"Local", locals}, {"HTTP", clients}} {
		shared := make([]string, len(tc.eps))
		nodes := make([]*xmltree.Node, len(tc.eps))
		for i, ep := range tc.eps {
			n, err := ep.Query(ctx, perTestQuery, "probe")
			if err != nil {
				t.Fatal(err)
			}
			nodes[i], shared[i] = n, n.String()
		}
		med := ledgeredMediator(t, tc.eps, nil)
		for _, r := range []string{"r1", "r2"} {
			integrated(t, med, perTestQuery, r)
		}
		for i, ep := range tc.eps {
			n, err := ep.Query(ctx, perTestQuery, "probe-after")
			if err != nil {
				t.Fatal(err)
			}
			if n != nodes[i] {
				t.Errorf("%s %s: the answer is not the shared node any more", tc.name, ep.Name())
			}
			if got := n.String(); got != shared[i] {
				t.Errorf("%s %s: the shared answer node changed:\n%s\nwas\n%s", tc.name, ep.Name(), got, shared[i])
			}
		}
	}
}
