package mediator

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// The integration memo (DESIGN.md §8): an aggregate whose targets all
// answer with the nodes the kept integration was folded from is
// published from it, and anything else is integrated again. These tests
// hold every published answer to a fresh mediator's integration of the
// same sources.

// warmMediatorAllocBound caps one op of BenchmarkQueryWarmMediator: a
// fresh requester's Figure 1(a) through a mediator over three sources
// behind httptest servers, each answering 304. Measured 128 (the three
// conditional POSTs and their 304s, client and server side, and the
// ledger's check and record of the release); 145 with a context per
// source call, 244 when the mediator parses, merges and folds the three
// held answers again.
const warmMediatorAllocBound = 138

// resilientWrapperAllocBound caps what guarding each source call as a
// shard guards it (tierResilience) adds to that op: measured 6, two per
// source call (the wrapper's call closure and the attempt's goroutine);
// 12 when each attempt makes its result channel again.
const resilientWrapperAllocBound = 9

// switchEndpoint is an Endpoint a test can make fail, hang until its
// deadline, or hide from routing (an empty summary at the next
// RefreshSchema).
type switchEndpoint struct {
	source.Endpoint
	fail, hang, hide atomic.Bool
}

func (e *switchEndpoint) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	switch {
	case e.fail.Load():
		return nil, errors.New("switched off")
	case e.hang.Load():
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return e.Endpoint.Query(ctx, text, requester)
}

func (e *switchEndpoint) Describe(ctx context.Context) (*source.Description, error) {
	d, err := e.Endpoint.Describe(ctx)
	if err != nil || !e.hide.Load() {
		return d, err
	}
	return &source.Description{Summary: xmltree.NewSummary(), Profiles: d.Profiles, Suites: d.Suites}, nil
}

// memoSources are three compliance sources (alpha, beta, gamma) whose
// Figure 1 aggregates their plans memoise, with their tables.
func memoSources(t testing.TB) ([]*switchEndpoint, []*relational.Table) {
	t.Helper()
	var eps []*switchEndpoint
	var tabs []*relational.Table
	for _, name := range []string{"alpha", "beta", "gamma"} {
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
		src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: pol, Registry: preserve.NewRegistry(), PlanCache: 16})
		if err != nil {
			t.Fatal(err)
		}
		local, err := source.NewLocal(src, salt, nil)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, &switchEndpoint{Endpoint: local})
		tabs = append(tabs, tab)
	}
	return eps, tabs
}

func endpoints[E source.Endpoint](eps []E) []source.Endpoint {
	out := make([]source.Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = ep
	}
	return out
}

// memoMediator is a mediator over eps with a registry, the ledger on at
// its default threshold.
func memoMediator(t testing.TB, eps []source.Endpoint, coalesce bool) (*Mediator, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	m, err := New(Config{Endpoints: eps, PlanCache: 16, Coalesce: coalesce, SourceTimeout: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, reg
}

func memoHits(reg *obs.Registry) uint64 {
	return reg.Counter("piye_mediator_queries_total", "outcome", outcomeMemo).Value()
}

// freshIntegration is the answer a mediator that has integrated nothing
// gives to query over eps.
func freshIntegration(t *testing.T, eps []source.Endpoint, query string) *Integrated {
	t.Helper()
	m, _ := memoMediator(t, eps, false)
	out, err := m.Query(query, "oracle")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameIntegration fails unless got is want's integration: the same
// result, contributors, denials and loss.
func sameIntegration(t *testing.T, when string, got, want *Integrated) {
	t.Helper()
	if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Answered, want.Answered) ||
		!reflect.DeepEqual(got.Denied, want.Denied) || got.AggregatedLoss != want.AggregatedLoss {
		t.Errorf("%s: integrated %+v (%v), want %+v (%v)", when, got, got.Result, want, want.Result)
	}
}

func TestIntegrationMemoReusesIdenticalNodes(t *testing.T) {
	eps, _ := memoSources(t)
	m, reg := memoMediator(t, endpoints(eps), false)
	first, err := m.Query(perTestQuery, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if first.reused || memoHits(reg) != 0 {
		t.Fatal("the first integration was served from the memo")
	}
	// Each Local answers every requester with its plan memo's node.
	for _, ep := range eps {
		a, errA := ep.Query(context.Background(), perTestQuery, "probe-a")
		b, errB := ep.Query(context.Background(), perTestQuery, "probe-b")
		if errA != nil || errB != nil || a != b {
			t.Fatalf("%s does not answer from its plan memo: %v %v", ep.Name(), errA, errB)
		}
	}
	want := freshIntegration(t, endpoints(eps), perTestQuery)
	for i := 2; i <= 4; i++ {
		r := fmt.Sprintf("r%d", i)
		out, err := m.Query(perTestQuery, r)
		if err != nil {
			t.Fatal(err)
		}
		if !out.reused || out.Result != first.Result {
			t.Errorf("%s: not published from the kept integration", r)
		}
		sameIntegration(t, r, out, want)
		if ledgerEntries(m, r) != 1 {
			t.Errorf("%s: a reused answer was not recorded in the ledger", r)
		}
	}
	if got := memoHits(reg); got != 3 {
		t.Errorf("piye_mediator_queries_total{outcome=memo} = %d, want 3", got)
	}
	// The ledger still refuses Figure 1(b) to a requester served 1(a)
	// from the memo.
	if _, err := m.Query(perHMOQuery, "r4"); err == nil {
		t.Error("Figure 1(b) after a memo-served 1(a) must be refused")
	}
}

func TestIntegrationMemoRecomputesWhenANodeChanges(t *testing.T) {
	eps, tabs := memoSources(t)
	m, reg := memoMediator(t, endpoints(eps), false)
	before, err := m.Query(perTestQuery, "r1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range eps {
		if err := tabs[i].Insert(tabs[i].Rows()[i]); err != nil {
			t.Fatal(err)
		}
		want := freshIntegration(t, endpoints(eps), perTestQuery)
		if reflect.DeepEqual(want.Result, before.Result) {
			t.Fatalf("an Insert into %s left the answer as it was", eps[i].Name())
		}
		hits := memoHits(reg)
		out, err := m.Query(perTestQuery, fmt.Sprintf("changed-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if out.reused || memoHits(reg) != hits {
			t.Errorf("after an Insert into %s: served from the memo", eps[i].Name())
		}
		sameIntegration(t, "after an Insert into "+eps[i].Name(), out, want)
		out, err = m.Query(perTestQuery, fmt.Sprintf("again-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !out.reused {
			t.Errorf("the integration after the Insert into %s was not kept", eps[i].Name())
		}
		sameIntegration(t, "again after an Insert into "+eps[i].Name(), out, want)
		before = out
	}
}

func TestIntegrationMemoRecomputesOnDenialTimeoutOrRouting(t *testing.T) {
	eps, _ := memoSources(t)
	m, reg := memoMediator(t, endpoints(eps), false)
	m.cfg.SourceTimeout = 50 * time.Millisecond
	full := freshIntegration(t, endpoints(eps), perTestQuery)
	n := 0
	ask := func(when string, want *Integrated, reused bool) *Integrated {
		t.Helper()
		n++
		hits := memoHits(reg)
		out, err := m.Query(perTestQuery, fmt.Sprintf("r%d", n))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if out.reused != reused || (memoHits(reg) == hits+1) != reused {
			t.Errorf("%s: reused %v, want %v", when, out.reused, reused)
		}
		if want != nil {
			sameIntegration(t, when, out, want)
		}
		return out
	}
	ask("cold", full, false)
	ask("warm", full, true)

	eps[1].fail.Store(true)
	out := ask("beta denied", nil, false)
	if _, ok := out.Denied["beta"]; !ok || len(out.Answered) != 2 {
		t.Errorf("beta denied: answered %v, denied %v", out.Answered, out.Denied)
	}
	eps[1].fail.Store(false)
	ask("beta back", full, true)

	eps[2].hang.Store(true)
	out = ask("gamma timed out", nil, false)
	if len(out.Answered) != 2 || out.Denied["gamma"] == "" {
		t.Errorf("gamma timed out: answered %v, denied %v", out.Answered, out.Denied)
	}
	eps[2].hang.Store(false)
	ask("gamma back", full, true)

	// Routing without alpha: two targets, and a kept integration of
	// three cannot stand for them, nor theirs for three.
	eps[0].hide.Store(true)
	if err := m.RefreshSchema(); err != nil {
		t.Fatal(err)
	}
	two := freshIntegration(t, endpoints(eps[1:]), perTestQuery)
	ask("routed to two", two, false)
	ask("routed to two, warm", two, true)
	eps[0].hide.Store(false)
	if err := m.RefreshSchema(); err != nil {
		t.Fatal(err)
	}
	ask("routed to three again", full, false)
	ask("routed to three again, warm", full, true)
}

// valueEndpoint is an Endpoint whose dynamic type cannot be compared
// with ==.
type valueEndpoint struct {
	source.Endpoint
	tags []string
}

// Targets are matched by name: endpoints of a type == cannot compare are
// kept and reused like any other.
func TestIntegrationMemoTakesUncomparableEndpoints(t *testing.T) {
	eps, _ := memoSources(t)
	vals := make([]source.Endpoint, len(eps))
	for i, ep := range eps {
		vals[i] = valueEndpoint{Endpoint: ep}
	}
	m, _ := memoMediator(t, vals, false)
	for _, r := range []string{"r1", "r2"} {
		out, err := m.Query(perTestQuery, r)
		if err != nil {
			t.Fatal(err)
		}
		if out.reused != (r == "r2") {
			t.Errorf("%s: reused %v", r, out.reused)
		}
	}
}

func TestIntegrationMemoKeepsNoPlainQuery(t *testing.T) {
	eps := twoHospitals(t)
	m, reg := memoMediator(t, eps, false)
	const plain = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"
	for _, r := range []string{"r1", "r2"} {
		if _, err := m.Query(plain, r); err != nil {
			t.Fatal(err)
		}
		if m.integration.Load() != nil {
			t.Fatal("a plain query's integration was kept")
		}
	}
	const agg = "FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n PURPOSE research MAXLOSS 1"
	if _, err := m.Query(agg, "r1"); err != nil {
		t.Fatal(err)
	}
	kept := m.integration.Load()
	if kept == nil {
		t.Fatal("an aggregate every source answered was not kept")
	}
	if _, err := m.Query(plain, "r3"); err != nil {
		t.Fatal(err)
	}
	if m.integration.Load() != kept {
		t.Error("a plain query took the slot")
	}
	if got := memoHits(reg); got != 0 {
		t.Errorf("piye_mediator_queries_total{outcome=memo} = %d, want 0", got)
	}
}

// Concurrent callers, with and without coalescing, each get the fresh
// integration of whichever query they asked, while a third query text
// keeps taking the slot; run it under -race.
func TestIntegrationMemoConcurrentCallers(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			eps, _ := memoSources(t)
			m, reg := memoMediator(t, endpoints(eps), coalesce)
			const perTestOnly = "FOR //compliance/row GROUP BY //test RETURN COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
			want := map[string]*Integrated{
				perTestQuery: freshIntegration(t, endpoints(eps), perTestQuery),
				perTestOnly:  freshIntegration(t, endpoints(eps), perTestOnly),
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						q := perTestQuery
						if (g+i)%4 == 0 {
							q = perTestOnly
						}
						// Two callers share each requester, so that
						// coalesced twins arrive together.
						out, err := m.Query(q, fmt.Sprintf("r%d-%d", g/2, i))
						switch {
						case err != nil:
						case !reflect.DeepEqual(out.Result, want[q].Result) || !reflect.DeepEqual(out.Answered, want[q].Answered):
							err = fmt.Errorf("%s: integrated %v, want %v", q, out.Result, want[q].Result)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if memoHits(reg) == 0 {
				t.Error("no caller was served from the memo")
			}
		})
	}
}

// warmMediatorOverHTTP is a mediator over three compliance sources behind
// httptest servers, warmed by one Figure 1(a); it returns one op: a
// fresh requester's 1(a), which every source revalidates with a 304.
// With rcfg, every call to a source is one guarded call under it, as a
// shard of the tier runs them.
func warmMediatorOverHTTP(tb testing.TB, rcfg *resilience.EndpointConfig) func() {
	tb.Helper()
	eps, _ := memoSources(tb)
	clients := make([]source.Endpoint, len(eps))
	for i, ep := range eps {
		srv := httptest.NewServer(source.NewHandler(ep.Endpoint.(*source.Local)))
		tb.Cleanup(srv.Close)
		clients[i] = source.NewClient(srv.URL, ep.Name())
	}
	m, err := New(Config{Endpoints: clients, PlanCache: 16, SourceTimeout: 5 * time.Second, Obs: obs.NewRegistry(), Resilience: rcfg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	if _, err := m.Query(perTestQuery, "warm-up"); err != nil {
		tb.Fatal(err)
	}
	n := 0
	return func() {
		n++
		out, err := m.Query(perTestQuery, "r"+fmt.Sprint(n))
		if err != nil || !out.reused {
			tb.Fatalf("warm query: %v, reused %v", err, out != nil && out.reused)
		}
	}
}

// tierResilience is the guarded call a shard of the tier runs each
// source call as: three attempts, a breaker opening after five failures.
var tierResilience = &resilience.EndpointConfig{
	Policy:  resilience.Policy{MaxAttempts: 3},
	Breaker: resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 5 * time.Second},
}

func TestWarmMediatorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	plain := testing.AllocsPerRun(100, warmMediatorOverHTTP(t, nil))
	if plain > warmMediatorAllocBound {
		t.Errorf("warm mediated Figure 1(a): %.1f allocs, want <= %d", plain, warmMediatorAllocBound)
	}
	guarded := testing.AllocsPerRun(100, warmMediatorOverHTTP(t, tierResilience))
	if extra := guarded - plain; extra > resilientWrapperAllocBound {
		t.Errorf("guarded source calls add %.1f allocs to a warm mediated Figure 1(a) (%.1f against %.1f), want <= %d",
			extra, guarded, plain, resilientWrapperAllocBound)
	}
}

// BenchmarkQueryWarmMediator is one fresh requester's Figure 1(a) through
// a mediator over three sources behind httptest servers: three
// conditional POSTs answered 304, the kept integration published, the
// release recorded: ~128 allocs and ~13 kB. ~244 allocs and ~20 kB mean
// the parse and the fold are back on the path; ~145 mean a context per
// source call again.
func BenchmarkQueryWarmMediator(b *testing.B) {
	benchWarmMediator(b, nil)
}

// BenchmarkQueryWarmMediatorResilient is BenchmarkQueryWarmMediator with
// each source call guarded as a shard guards it (tierResilience): the
// wrapper's call closure and one attempt goroutine per source call,
// whose result channel is recycled: ~6 allocs over the plain benchmark.
// ~12 over it mean a channel per attempt again.
func BenchmarkQueryWarmMediatorResilient(b *testing.B) {
	benchWarmMediator(b, tierResilience)
}

func benchWarmMediator(b *testing.B, rcfg *resilience.EndpointConfig) {
	op := warmMediatorOverHTTP(b, rcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
