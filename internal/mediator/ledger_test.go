package mediator

import (
	"strings"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// figure1Mediator builds a mediator over the paper's Example 1
// deployment: an integrator source that holds the pooled compliance table
// (the HMOs deposited their rows with it) and shares it only in aggregate
// form. Cross-HMO statistics are therefore computable at the source —
// exactly the Figure 1(a)/(b) publications — and the mediator's ledger is
// the only thing standing between a snooper and the combination attack.
// The identity preservation registry keeps the aggregates exact so the
// ledger check sees the Figure 1 numbers.
func figure1Mediator(t *testing.T, maxDisclosure float64) *Mediator {
	t.Helper()
	// PlanCache is on so every ledger test also covers the cached-parse
	// path: a hit must change nothing about what gets refused.
	m, err := New(Config{Endpoints: []source.Endpoint{figure1Endpoint(t)}, MaxDisclosure: maxDisclosure, LedgerTolerance: 0.05, PlanCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// figure1Endpoint is the integrator source of figure1Mediator.
func figure1Endpoint(t *testing.T) source.Endpoint {
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
	return ep
}

const (
	perTestQuery = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
	perHMOQuery  = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
)

// The paper's Figure 1 as a query sequence: the per-test statistics
// (Figure 1(a)) and per-HMO means (Figure 1(b)) are each individually
// authorized aggregate queries; together they admit the interval
// inference attack. The ledger must refuse the second.
func TestLedgerBlocksFigure1QueryPair(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	in, err := m.Query(perTestQuery, "snooper")
	if err != nil {
		t.Fatalf("first release (Figure 1a) should pass: %v", err)
	}
	if len(in.Result.Rows) != 3 {
		t.Fatalf("per-test groups = %v", in.Result.Rows)
	}
	_, err = m.Query(perHMOQuery, "snooper")
	if err == nil {
		t.Fatal("the Figure 1 combination must be refused")
	}
	if !strings.Contains(err.Error(), "combined") {
		t.Errorf("refusal should explain the combination: %v", err)
	}
}

// The same pair in the other order: per-HMO means first (harmless alone),
// then the sigma-bearing per-test release closes the system.
func TestLedgerBlocksFigure1PairEitherOrder(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	if _, err := m.Query(perHMOQuery, "snooper"); err != nil {
		t.Fatalf("per-HMO means alone should pass: %v", err)
	}
	if _, err := m.Query(perTestQuery, "snooper"); err == nil {
		t.Fatal("sigma release after party means must be refused")
	}
}

// Different requesters do not share ledgers (collusion is the audit
// layer's Merge concern, not the ledger default).
func TestLedgerIsPerRequester(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	if _, err := m.Query(perTestQuery, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(perHMOQuery, "bob"); err != nil {
		t.Errorf("bob holds no sigma release; his query should pass: %v", err)
	}
}

// A permissive threshold lets the pair through (the operator's choice).
func TestLedgerThresholdRespected(t *testing.T) {
	m := figure1Mediator(t, 1.0)
	if _, err := m.Query(perTestQuery, "snooper"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(perHMOQuery, "snooper"); err != nil {
		t.Errorf("threshold 1.0 should allow the pair: %v", err)
	}
}

// Unrelated aggregate releases (different value columns or the same axis
// again) are not flagged.
func TestLedgerIgnoresUnrelatedReleases(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	if _, err := m.Query(perTestQuery, "snooper"); err != nil {
		t.Fatal(err)
	}
	// Same axis again: refreshes nothing, combines with nothing.
	if _, err := m.Query(perTestQuery+" ", "snooper"); err != nil {
		t.Errorf("same-axis repeat should pass: %v", err)
	}
}

func TestClassifyRelease(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	in, err := m.Query(perTestQuery, "x")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := parseForTest(perTestQuery)
	rel, ok := classifyRelease(q, in.Result)
	if !ok {
		t.Fatal("per-test release should classify")
	}
	if rel.Axis != "test" || rel.ValueCol != "rate" || len(rel.Means) != 3 || rel.Sigmas == nil {
		t.Errorf("classified = %+v", rel)
	}
	// Non-ledger shapes.
	q2, _ := parseForTest("FOR //compliance/row RETURN COUNT(*) AS n PURPOSE research")
	if _, ok := classifyRelease(q2, in.Result); ok {
		t.Error("no group-by should not classify")
	}
}

func parseForTest(src string) (*piql.Query, *piql.Result) {
	return piql.MustParse(src), nil
}
