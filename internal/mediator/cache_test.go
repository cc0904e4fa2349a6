package mediator

import (
	"sync"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// A schema refresh invalidates the plan cache: cached canonicalizations
// may not survive a correspondence change.
func TestPlanCachePurgedOnRefreshSchema(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	if _, err := m.Query(perTestQuery, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, size := m.PlanCacheStats(); size == 0 {
		t.Fatal("query should have populated the plan cache")
	}
	if err := m.RefreshSchema(); err != nil {
		t.Fatal(err)
	}
	if _, _, size := m.PlanCacheStats(); size != 0 {
		t.Fatalf("RefreshSchema should purge the plan cache, %d entries remain", size)
	}
}

// With the cache disabled (PlanCache 0) the stats stay zero and queries
// still work — the nil cache is a no-op, not an error.
func TestPlanCacheDisabledIsNoop(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	m.plans = nil // simulate PlanCache: 0 without rebuilding the fixture
	if _, err := m.Query(perTestQuery, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(perTestQuery, "alice"); err != nil {
		t.Fatal(err)
	}
	hits, misses, size := m.PlanCacheStats()
	if hits != 0 || misses != 0 || size != 0 {
		t.Fatalf("disabled cache should report zeroes, got hits=%d misses=%d size=%d", hits, misses, size)
	}
}

// Whitespace inside a quoted literal is part of the query. Two texts
// that differ only there used to share one cache key — and, with
// Coalesce, one flight — so the second was answered with the first
// one's parse. The fixture holds one test named with a single space and
// one with two, at different rates.
const (
	narrowLiteralQuery = "FOR //compliance/row WHERE //test = 'Eye exam' RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	wideLiteralQuery   = "FOR //compliance/row WHERE //test = 'Eye  exam' RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
)

func literalMediator(t *testing.T, coalesce bool, wrap func(source.Endpoint) source.Endpoint) *Mediator {
	t.Helper()
	tab, err := clinical.ComplianceTable("compliance", []string{"HMO1", "HMO2"}, []string{"Eye exam", "Eye  exam"},
		[][]float64{{10, 70}, {20, 80}})
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance/row/test", Purpose: "research", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//compliance/row/rate", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry(), PlanCache: 64})
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
	m, err := New(Config{Endpoints: []source.Endpoint{endpoint}, PlanCache: 64, Coalesce: coalesce})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func singleCell(t *testing.T, in *Integrated, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Result.Rows) != 1 || len(in.Result.Rows[0]) != 1 {
		t.Fatalf("want one aggregate cell, got %v", in.Result.Rows)
	}
	return in.Result.Rows[0][0]
}

func TestLiteralWhitespaceIsNotNormalizedAway(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		m := literalMediator(t, coalesce, nil)
		in, err := m.Query(narrowLiteralQuery, "analyst")
		narrow := singleCell(t, in, err)
		in, err = m.Query(wideLiteralQuery, "analyst")
		wide := singleCell(t, in, err)
		if narrow != "15" || wide != "75" {
			t.Fatalf("coalesce=%v: 'Eye exam' averaged %s (want 15), 'Eye  exam' averaged %s (want 75)", coalesce, narrow, wide)
		}
	}
}

// The same two texts in flight at once, same requester, Coalesce on:
// they are different queries and must not share an execution.
func TestCoalesceKeepsLiteralVariantsApart(t *testing.T) {
	g := &gatedEndpoint{gate: make(chan struct{})}
	m := literalMediator(t, true, func(ep source.Endpoint) source.Endpoint {
		g.Endpoint = ep
		return g
	})
	texts := []string{narrowLiteralQuery, wideLiteralQuery}
	got := make([]string, len(texts))
	var wg sync.WaitGroup
	for i, text := range texts {
		wg.Add(1)
		go func(i int, text string) {
			defer wg.Done()
			in, err := m.Query(text, "analyst")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = in.Result.Rows[0][0]
		}(i, text)
	}
	// Both must reach the source: a follower would never call it.
	waitForCond(t, func() bool { return g.calls.Load() == 2 })
	close(g.gate)
	wg.Wait()
	if got[0] != "15" || got[1] != "75" {
		t.Fatalf("'Eye exam' averaged %q (want 15), 'Eye  exam' averaged %q (want 75)", got[0], got[1])
	}
}
