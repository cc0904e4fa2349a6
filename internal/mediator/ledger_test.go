package mediator

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/obs"
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
func figure1Mediator(t testing.TB, maxDisclosure float64) *Mediator {
	t.Helper()
	// PlanCache is on so every ledger test also covers the cached-parse
	// path: a hit must change nothing about what gets refused.
	m, err := New(Config{Endpoints: []source.Endpoint{figure1Endpoint(t)}, MaxDisclosure: maxDisclosure, PlanCache: 64, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// figure1Endpoint is the integrator source of figure1Mediator.
func figure1Endpoint(t testing.TB) source.Endpoint {
	return figure1EndpointWith(t, preserve.NewRegistry())
}

// figure1EndpointWith is figure1Endpoint mitigating through reg.
func figure1EndpointWith(t testing.TB, reg *preserve.Registry) source.Endpoint {
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
	src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: reg})
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
// inference attack. The ledger must refuse the second, and a mediator
// left at its default threshold and tolerance must too.
func TestLedgerBlocksFigure1QueryPair(t *testing.T) {
	defaults, err := New(Config{Endpoints: []source.Endpoint{figure1Endpoint(t)}})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Mediator{"threshold 0.9": figure1Mediator(t, 0.9), "defaults": defaults} {
		t.Run(name, func(t *testing.T) {
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
		})
	}
}

// Each release is checked at the precision it was published at: the
// exact answers of an empty registry at the floor, the default registry's
// integer-rounded ones at ±0.5. The refusal names the tolerance, and the
// ledger keeps each release with it, across a restart too.
func TestLedgerChecksEachReleaseAtItsPublishedPrecision(t *testing.T) {
	for _, tc := range []struct {
		reg *preserve.Registry
		tol float64
	}{{preserve.NewRegistry(), ledgerFloor}, {preserve.DefaultRegistry(), 0.5}} {
		ep, dir := figure1EndpointWith(t, tc.reg), t.TempDir()
		open := func() *Mediator {
			m, err := New(Config{Endpoints: []source.Endpoint{ep}, Durability: &DurabilityConfig{Dir: dir}, Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := open()
		if _, err := m.Query(perTestQuery, "snooper"); err != nil {
			t.Fatal(err)
		}
		for _, route := range []string{"live", "after a restart"} {
			var r *CombinationRefusal
			_, err := m.Query(perHMOQuery, "snooper")
			if !errors.As(err, &r) || r.Tolerance != tc.tol || !strings.HasSuffix(err.Error(), fmt.Sprintf(", checked at ±%g", tc.tol)) {
				t.Errorf("%s: Figure 1(b) at ±%g: %v", route, tc.tol, err)
			}
			if held := m.ledger.releasesOf("snooper"); len(held) != 1 || held[0].Tol != tc.tol {
				t.Errorf("%s: the ledger holds %+v, want Figure 1(a) at ±%g", route, held, tc.tol)
			}
			must(t, m.Close())
			m = open()
		}
		must(t, m.Close())
	}
}

// A pair is checked at the finer of its two releases' tolerances,
// whichever of them is the prior.
func TestLedgerChecksAPairAtItsFinerTolerance(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	relA, relB := figure1Releases(t, m)
	for _, tols := range [][2]float64{{0.05, ledgerFloor}, {ledgerFloor, 0.05}, {0.5, 0.05}} {
		a, b := relA, relB
		a.Tol, b.Tol = tols[0], tols[1]
		want, err := combinedDisclosure(a, b, min(a.Tol, b.Tol))
		if err != nil {
			t.Fatal(err)
		}
		m.ledger.read(func(l *releaseLedger) { l.reset() })
		addRelease(m, "r", a)
		var r *CombinationRefusal
		if err := checkPair(m, "r", b); !errors.As(err, &r) || r.Tolerance != min(a.Tol, b.Tol) || r.Disclosure != want {
			t.Errorf("1(a) at ±%g, then 1(b) at ±%g: %v; want a refusal at %v, ±%g", a.Tol, b.Tol, err, want, min(a.Tol, b.Tol))
		}
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
	rel, ok := classifyRelease(q, in.Result, nil)
	if !ok {
		t.Fatal("per-test release should classify")
	}
	if rel.Axis != "test" || rel.ValueCol != "rate" || len(rel.Means) != 3 || rel.Sigmas == nil {
		t.Errorf("classified = %+v", rel)
	}
	// Non-ledger shapes.
	q2, _ := parseForTest("FOR //compliance/row RETURN COUNT(*) AS n PURPOSE research")
	if _, ok := classifyRelease(q2, in.Result, nil); ok {
		t.Error("no group-by should not classify")
	}
}

func parseForTest(src string) (*piql.Query, *piql.Result) {
	return piql.MustParse(src), nil
}

// solves reads m's piye_mediator_ledger_solves_total.
func solves(m *Mediator) (miss, hit uint64) {
	reg := m.cfg.Obs
	return reg.Counter("piye_mediator_ledger_solves_total", "memo", "miss").Value(),
		reg.Counter("piye_mediator_ledger_solves_total", "memo", "hit").Value()
}

// The verdict memo: N requesters each ask Figure 1(a), then 1(b). Every
// 1(b) is refused with one Disclosure, and the pair is solved once.
func TestLedgerSolvesEachPairOnce(t *testing.T) {
	const n = 5
	m := figure1Mediator(t, 0.9)
	var first *CombinationRefusal
	for i := range n {
		req := "attacker-" + string(rune('a'+i))
		if _, err := m.Query(perTestQuery, req); err != nil {
			t.Fatal(err)
		}
		var r *CombinationRefusal
		if _, err := m.Query(perHMOQuery, req); !errors.As(err, &r) {
			t.Fatalf("%s's Figure 1(b): %v, want a CombinationRefusal", req, err)
		}
		if first == nil {
			first = r
		} else if *r != *first {
			t.Errorf("%s refused with %+v, the first with %+v", req, *r, *first)
		}
	}
	if miss, hit := solves(m); miss != 1 || hit != n-1 {
		t.Errorf("solves: miss %d, hit %d; want 1 and %d", miss, hit, n-1)
	}
}

// checkPair runs the combination check of rel against requester r's
// priors.
func checkPair(m *Mediator, r string, rel ledgerRelease) error {
	table, priors, memo := m.ledger.priors(r)
	return m.checkCombinations(rel, table, priors, memo)
}

// addRelease records rel for r as a commit would, without the log.
func addRelease(m *Mediator, r string, rel ledgerRelease) {
	m.ledger.read(func(l *releaseLedger) { l.add(r, rel) })
}

// The memo keys a pair by its prior's id: another prior is another pair,
// and reset empties the table and the memo together, so a different
// release at the reused id 0 is solved afresh and gets its own verdict.
func TestVerdictMemoResetWithTable(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	relA, relB := figure1Releases(t, m)
	other := relA
	other.Sigmas = slices.Clone(relA.Sigmas)
	for i := range other.Sigmas {
		other.Sigmas[i].v *= 1.5
	}
	dA, errA := combinedDisclosure(relA, relB, ledgerFloor)
	dOther, errOther := combinedDisclosure(other, relB, ledgerFloor)
	if errA != nil || errOther != nil || dA == dOther {
		t.Fatalf("the two priors solve to %v, %v and %v, %v; want two disclosures", dA, errA, dOther, errOther)
	}
	// check is Figure 1(b) against r's priors, which must read d.
	check := func(r string, d float64) {
		t.Helper()
		err := checkPair(m, r, relB)
		var got *CombinationRefusal
		switch {
		case d >= m.cfg.MaxDisclosure && (!errors.As(err, &got) || got.Disclosure != d):
			t.Errorf("%s: %v, want a refusal at %v", r, err, d)
		case d < m.cfg.MaxDisclosure && err != nil:
			t.Errorf("%s: %v, want the grant its %v reads", r, err, d)
		}
	}
	m.ledger.read(func(l *releaseLedger) { l.reset() })
	addRelease(m, "r", relA)
	addRelease(m, "s", other)
	check("r", dA)
	check("s", dOther)

	m.ledger.read(func(l *releaseLedger) { l.reset() })
	addRelease(m, "r", other)
	if _, priors, _ := m.ledger.priors("r"); len(priors) != 1 || priors[0] != 0 {
		t.Fatalf("after reset the other release has ids %v, want [0]", priors)
	}
	check("r", dOther)
	if miss, hit := solves(m); miss != 3 || hit != 0 {
		t.Errorf("solves: miss %d, hit %d; want 3 and 0", miss, hit)
	}
}

// A memo entry under the right key but for another release (a hash
// collision) is not a hit: the pair is solved again.
func TestVerdictMemoConfirmsByContent(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	relA, relB := figure1Releases(t, m)
	addRelease(m, "r", relA)
	table, priors, memo := m.ledger.priors("r")
	other := relB
	other.Means = slices.Clone(relB.Means)
	other.Means[0].v++
	memo.store(verdictKey{prior: priors[0], rel: relB.hash(m.ledger.seed)}, verdict{rel: other, d: 0})
	var r *CombinationRefusal
	if err := m.checkCombinations(relB, table, priors, memo); !errors.As(err, &r) {
		t.Fatalf("Figure 1(b) against a planted grant for another release: %v, want a CombinationRefusal", err)
	}
	if miss, hit := solves(m); miss != 1 || hit != 0 {
		t.Errorf("solves: miss %d, hit %d; want 1 and 0", miss, hit)
	}

	for i := range verdictMemoSize + 10 {
		memo.store(verdictKey{prior: uint32(i) + 1}, verdict{})
	}
	if n := len(memo.m); n != verdictMemoSize {
		t.Errorf("the memo holds %d entries, want its bound %d", n, verdictMemoSize)
	}
}

// The threshold is applied at use, and a hit that grants allocates
// nothing.
func TestVerdictMemoHitAllocatesNothing(t *testing.T) {
	m := figure1Mediator(t, 0.9)
	relA, relB := figure1Releases(t, m)
	addRelease(m, "r", relA)
	var r *CombinationRefusal
	if err := checkPair(m, "r", relB); !errors.As(err, &r) {
		t.Fatalf("Figure 1(b) after 1(a): %v, want a CombinationRefusal", err)
	}
	m.cfg.MaxDisclosure = 1
	if err := checkPair(m, "r", relB); err != nil {
		t.Fatalf("at threshold 1 the memoised %v must grant: %v", r.Disclosure, err)
	}
	table, priors, memo := m.ledger.priors("r")
	if n := testing.AllocsPerRun(100, func() {
		if err := m.checkCombinations(relB, table, priors, memo); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", n)
	}
	if miss, _ := solves(m); miss != 1 {
		t.Errorf("solves: miss %d, want 1", miss)
	}
}

// Concurrent checks of one pair share the memo: misses that race may
// each solve, and every check reads the pair's one verdict.
func TestVerdictMemoConcurrentChecks(t *testing.T) {
	const workers, rounds = 4, 20
	m := figure1Mediator(t, 0.9)
	relA, relB := figure1Releases(t, m)
	addRelease(m, "r", relA)
	want, err := combinedDisclosure(relA, relB, ledgerFloor)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				var r *CombinationRefusal
				if err := checkPair(m, "r", relB); !errors.As(err, &r) || r.Disclosure != want {
					t.Errorf("Figure 1(b) after 1(a): %v, want a refusal at %v", err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if miss, hit := solves(m); miss < 1 || miss > workers || miss+hit != workers*rounds {
		t.Errorf("solves: miss %d, hit %d; want 1 to %d misses of %d", miss, hit, workers, workers*rounds)
	}
}

// BenchmarkLedgerCheck is the combination check of Figure 1(b) against
// 1(a): miss solves the pair, hit takes the memo's verdict. `make
// bench-quick` prints its allocs/op; hit must read 0.
func BenchmarkLedgerCheck(b *testing.B) {
	m := figure1Mediator(b, 1)
	relA, relB := figure1Releases(b, m)
	addRelease(m, "r", relA)
	table, priors, memo := m.ledger.priors("r")
	for _, bc := range []struct {
		name string
		memo func() *verdictMemo
	}{
		{"miss", func() *verdictMemo { return &verdictMemo{m: map[verdictKey]verdict{}} }},
		{"hit", func() *verdictMemo { return memo }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if err := m.checkCombinations(relB, table, priors, memo); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := m.checkCombinations(relB, table, priors, bc.memo()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
