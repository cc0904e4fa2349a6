package source

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privateiye/internal/accesscontrol"
	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
)

func auditedCachingSource(t *testing.T) *Source {
	t.Helper()
	g := clinical.NewGenerator(5)
	cat := relational.NewCatalog()
	patients, _ := g.Patients("patients", 50, 2)
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	pol, _ := policy.NewPolicy("s", policy.Allow)
	log, err := audit.NewLog(audit.Config{Population: 50, MinSetSize: 3, MaxOverlap: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{Name: "s", Catalog: cat, Policy: pol, Audit: log, PlanCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// The plan cache covers only the pure planning prefix (rewrite, cluster
// match, optimize); sequence auditing is stateful and must run on every
// execution. A repeated aggregate whose plan comes straight from the
// cache is still refused by overlap control.
func TestPlanCacheHitStillAudited(t *testing.T) {
	src := auditedCachingSource(t)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research")
	if _, err := src.Execute(q, "snooper"); err != nil {
		t.Fatalf("first aggregate should pass: %v", err)
	}
	h0, _, _ := src.PlanCacheStats()
	if _, err := src.Execute(q, "snooper"); err == nil {
		t.Fatal("repeated aggregate should be refused even on a plan-cache hit")
	}
	h1, _, _ := src.PlanCacheStats()
	if h1 <= h0 {
		t.Fatalf("repeat should be a plan-cache hit: hits %d -> %d", h0, h1)
	}
}

// A preference landing at runtime purges the cache, so a previously
// cached plan cannot outlive the policy state it was computed under.
func TestPlanCachePurgedOnAddPreference(t *testing.T) {
	src := auditedCachingSource(t)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN //age PURPOSE research")
	if _, err := src.Execute(q, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, size := src.PlanCacheStats(); size == 0 {
		t.Fatal("execution should have populated the plan cache")
	}
	pref, err := policy.NewPolicy("subject", policy.Deny)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddPreference(pref); err != nil {
		t.Fatal(err)
	}
	if _, _, size := src.PlanCacheStats(); size != 0 {
		t.Fatalf("AddPreference should purge the plan cache, %d entries remain", size)
	}
	// The deny-default preference now refuses what the cached plan allowed.
	if _, err := src.Execute(q, "alice"); err == nil {
		t.Fatal("query should be denied after the deny preference lands")
	}
}

// Without an Access store planning reads nothing of the requester, so a
// second requester is served the first one's plan — and is still
// sequence-audited under its own name: alice's history neither blocks
// bob's first ask nor excuses his repeat.
func TestPlanCacheSharedAcrossRequestersStillAuditedPerRequester(t *testing.T) {
	src := auditedCachingSource(t)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research")
	if _, err := src.Execute(q, "alice"); err != nil {
		t.Fatal(err)
	}
	h0, m0, _ := src.PlanCacheStats()
	if _, err := src.Execute(q, "bob"); err != nil {
		t.Fatalf("bob's first ask should pass whatever alice asked before: %v", err)
	}
	h1, m1, _ := src.PlanCacheStats()
	if h1 != h0+1 || m1 != m0 {
		t.Fatalf("second requester should hit the shared plan: hits %d -> %d, misses %d -> %d", h0, h1, m0, m1)
	}
	if _, err := src.Execute(q, "bob"); err == nil {
		t.Fatal("bob's repeat must be refused by his own sequence audit")
	}
	if _, err := src.Execute(q, "alice"); err == nil {
		t.Fatal("alice's repeat must be refused by her own sequence audit")
	}
	if _, err := src.Execute(q, "carol"); err != nil {
		t.Fatalf("a third requester's first ask should pass: %v", err)
	}
}

// classedStore has three access classes of two subjects each:
// analyst@public (alice, bob — bob through an inherited role),
// clinician@public (carol, cy) and analyst@confidential (dave, dee).
// zip is classified confidential.
func classedStore(t *testing.T) *accesscontrol.Store {
	t.Helper()
	st := accesscontrol.NewStore()
	for role, items := range map[accesscontrol.Role][]string{
		"analyst":   {"//patients/row/age", "//patients/row/zip"},
		"clinician": {"//patients/row/*"},
	} {
		for _, item := range items {
			if err := st.RBAC.Grant(role, accesscontrol.Read, item); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.MLS.Classify("//patients/row/zip", accesscontrol.Confidential); err != nil {
		t.Fatal(err)
	}
	st.RBAC.Assign("alice", "analyst")
	st.RBAC.Assign("bob", "analyst")
	st.RBAC.Assign("carol", "clinician")
	st.RBAC.Assign("cy", "clinician")
	for _, cleared := range []string{"dave", "dee"} {
		st.RBAC.Assign(cleared, "analyst")
		st.MLS.SetClearance(cleared, accesscontrol.Confidential)
	}
	return st
}

var classedRequesters = []string{"alice", "bob", "carol", "cy", "dave", "dee"}

// patientsCatalog holds 50 generated patients, as auditedCachingSource's.
func patientsCatalog(t *testing.T) *relational.Catalog {
	t.Helper()
	cat := relational.NewCatalog()
	patients, err := clinical.NewGenerator(5).Patients("patients", 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	return cat
}

// classedSource is a source over patientsCatalog behind classedStore,
// with a sequence auditor; planCache 0 builds the uncached twin.
func classedSource(t *testing.T, planCache int) *Source {
	t.Helper()
	pol, err := policy.NewPolicy("s", policy.Allow,
		policy.Rule{Item: "//patients/row/id", Purpose: "any", Effect: policy.Deny},
	)
	if err != nil {
		t.Fatal(err)
	}
	log, err := audit.NewLog(audit.Config{Population: 50, MinSetSize: 3, MaxOverlap: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{
		Name: "s", Catalog: patientsCatalog(t), Policy: pol, Access: classedStore(t),
		Audit: log, Seed: 11, PlanCache: planCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func droppedList(a *Answer) string {
	var parts []string
	for _, d := range a.Rewrite.DroppedReturns {
		parts = append(parts, d.What+": "+d.Reason)
	}
	return strings.Join(parts, "; ")
}

// With an Access store the plan is keyed on the requester's access
// class: same class ⇒ hit, different class ⇒ miss and a different
// rewrite outcome. The shared outcome names no requester.
func TestPlanCacheKeyedByAccessClass(t *testing.T) {
	src := classedSource(t, 64)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN //age, //sex PURPOSE research")
	counters := func() (h, m uint64) { h, m, _ = src.PlanCacheStats(); return }

	first, err := src.Execute(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := droppedList(first); !strings.Contains(got, "//sex: access control denies read on /patients/row/sex") {
		t.Fatalf("an analyst may not read sex; dropped = %q", got)
	}

	h0, m0 := counters()
	same, err := src.Execute(q, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if h, m := counters(); h != h0+1 || m != m0 {
		t.Fatalf("same class should hit: hits %d -> %d, misses %d -> %d", h0, h, m0, m)
	}
	if droppedList(same) != droppedList(first) {
		t.Fatalf("same class, different outcome: %q vs %q", droppedList(same), droppedList(first))
	}
	// bob was served the plan computed for alice: nothing he receives may
	// name her.
	if xml := same.Node.String(); strings.Contains(xml, "alice") || !strings.Contains(xml, "<dropped") {
		t.Fatalf("bob's answer must carry the dropped item and never alice's name:\n%s", xml)
	}

	h0, m0 = counters()
	other, err := src.Execute(q, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if h, m := counters(); h != h0 || m != m0+1 {
		t.Fatalf("different class should miss: hits %d -> %d, misses %d -> %d", h0, h, m0, m)
	}
	if len(other.Rewrite.DroppedReturns) != 0 || len(other.Result.Columns) != 2 {
		t.Fatalf("a clinician reads both columns; dropped = %q, columns = %v", droppedList(other), other.Result.Columns)
	}

	// Clearance is part of the class: dave holds alice's roles but reads
	// the confidential zip she may not.
	qz := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN //age, //zip PURPOSE research")
	low, err := src.Execute(qz, "alice")
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 = counters()
	high, err := src.Execute(qz, "dave")
	if err != nil {
		t.Fatal(err)
	}
	if h, m := counters(); h != h0 || m != m0+1 {
		t.Fatalf("different clearance should miss: hits %d -> %d, misses %d -> %d", h0, h, m0, m)
	}
	if len(low.Rewrite.DroppedReturns) != 1 || len(high.Rewrite.DroppedReturns) != 0 {
		t.Fatalf("zip: uncleared dropped = %q, cleared dropped = %q", droppedList(low), droppedList(high))
	}
}

// The cache may change latency, never the answer: a cached source and an
// uncached twin, fed the same seeded sequence of (requester, query)
// calls over three access classes, twice over (cold, then warm), agree
// on every call — answer, dropped items, budget, refusal.
func TestPlanCacheDifferentialAgainstUncachedTwin(t *testing.T) {
	cached, plain := classedSource(t, 64), classedSource(t, 0)
	queries := []string{
		"FOR //patients/row WHERE //age > 30 RETURN //age, //sex PURPOSE research",
		"FOR //patients/row WHERE //age > 30 RETURN //age, //zip PURPOSE research",
		"FOR //patients/row WHERE //age > 55 RETURN //age PURPOSE research MAXLOSS 0.5",
		"FOR //patients/row WHERE //sex = 'F' RETURN //age ORDER BY age LIMIT 5 PURPOSE research",
		"FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research",
		"FOR //patients/row WHERE //age > 40 RETURN AVG(//age) AS a, COUNT(*) AS n PURPOSE research",
		"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n PURPOSE research",
		"FOR //patients/row RETURN //id PURPOSE research",
		"FOR //patients/row RETURN //diagnosis PURPOSE research",
		"FOR //patients/row WHERE //dateOfBirth > 3 RETURN //age PURPOSE research",
	}
	type call struct{ requester, query string }
	var calls []call
	for _, r := range classedRequesters {
		for _, q := range queries {
			calls = append(calls, call{r, q})
		}
	}
	rand.New(rand.NewSource(18)).Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

	render := func(a *Answer, err error) string {
		if err != nil {
			return "refused: " + err.Error()
		}
		return fmt.Sprintf("budget=%g loss=%g breach=%s technique=%s dropped=[%s] droppedPreds=%v\n%s",
			a.Rewrite.Budget, a.EstimatedLoss, a.Breach, a.Technique, droppedList(a), a.Rewrite.DroppedPredicates, a.Node.String())
	}
	answered, refused := 0, 0
	for _, pass := range []string{"cold", "warm"} {
		for i, c := range calls {
			q := piql.MustParse(c.query)
			ca, cerr := cached.Execute(q, c.requester)
			pa, perr := plain.Execute(q, c.requester)
			if got, want := render(ca, cerr), render(pa, perr); got != want {
				t.Fatalf("%s call %d (%s, %q): cached and uncached differ\ncached:   %s\nuncached: %s", pass, i, c.requester, c.query, got, want)
			}
			if cerr != nil {
				refused++
			} else {
				answered++
			}
		}
	}
	// The comparison must have seen both outcomes, and the warm pass must
	// actually have been served from the cache.
	if answered == 0 || refused == 0 {
		t.Fatalf("degenerate run: %d answered, %d refused", answered, refused)
	}
	if h, _, _ := cached.PlanCacheStats(); h == 0 {
		t.Fatal("the cached source never hit its plan cache")
	}
}

// A plan outlives neither an MLS nor an RBAC change: raising an item
// above the subject's clearance, or moving the subject to another class,
// makes the next Execute re-plan.
func TestPlanCacheInvalidatedByAccessChange(t *testing.T) {
	src := classedSource(t, 64)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN //age, //zip PURPOSE research")
	warm := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			a, err := src.Execute(q, "dave")
			if err != nil || len(a.Rewrite.DroppedReturns) != 0 {
				t.Fatalf("cleared analyst should read age and zip: %v", err)
			}
		}
	}
	warm()
	h0, m0, _ := src.PlanCacheStats()
	if err := src.cfg.Access.MLS.Classify("//patients/row/zip", accesscontrol.Secret); err != nil {
		t.Fatal(err)
	}
	a, err := src.Execute(q, "dave")
	if err != nil {
		t.Fatal(err)
	}
	if got := droppedList(a); !strings.Contains(got, "//zip: access control denies read on /patients/row/zip") {
		t.Fatalf("zip is now above dave's clearance; dropped = %q, columns = %v", got, a.Result.Columns)
	}
	if h1, m1, _ := src.PlanCacheStats(); h1 != h0 || m1 != m0+1 {
		t.Fatalf("the stale plan must be a miss: hits %d -> %d, misses %d -> %d", h0, h1, m0, m1)
	}

	// An Assign that changes nothing dave can read still moves the epoch:
	// conservative, and the re-planned outcome is the same.
	src.cfg.Access.MLS.SetClearance("dave", accesscontrol.Secret)
	warm()
	src.cfg.Access.RBAC.Assign("dave", "auditor")
	_, m2, _ := src.PlanCacheStats()
	if _, err := src.Execute(q, "dave"); err != nil {
		t.Fatal(err)
	}
	if _, m3, _ := src.PlanCacheStats(); m3 != m2+1 {
		t.Fatalf("an RBAC change must invalidate: misses %d -> %d", m2, m3)
	}
}

// gateTechnique parks the first planner that asks its name — planFor
// does, after rewriting has read the preferences and before the plan is
// Put — so a test can land a preference inside that window.
type gateTechnique struct {
	preserve.Identity
	once    *sync.Once
	reached chan struct{}
	release chan struct{}
}

func (g gateTechnique) Name() string {
	g.once.Do(func() {
		close(g.reached)
		<-g.release
	})
	return g.Identity.Name()
}

// The interleaving the epoch exists for, made deterministic: a planner
// reads the old preferences, a deny-all preference lands and purges, and
// only then does the planner Put. That plan grants what the preference
// refuses; it must never be served.
func TestStalePlanPutAfterAddPreferenceIsNeverServed(t *testing.T) {
	gate := gateTechnique{once: new(sync.Once), reached: make(chan struct{}), release: make(chan struct{})}
	reg := preserve.NewRegistry()
	for _, b := range preserve.Classes() {
		reg.Register(b, gate)
	}
	pol, _ := policy.NewPolicy("s", policy.Allow)
	src, err := New(Config{Name: "s", Catalog: patientsCatalog(t), Policy: pol, Registry: reg, PlanCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN //age PURPOSE research")

	planned := make(chan error, 1)
	go func() {
		_, err := src.Execute(q, "alice") // planned under the old preferences: granted
		planned <- err
	}()
	<-gate.reached
	deny, _ := policy.NewPolicy("subject", policy.Deny)
	if err := src.AddPreference(deny); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if err := <-planned; err != nil {
		t.Fatalf("the in-flight query began before the preference landed and should be answered: %v", err)
	}
	if _, _, size := src.PlanCacheStats(); size == 0 {
		t.Fatalf("the late Put should have landed, cache holds %d entries", size)
	}
	for _, requester := range []string{"alice", "bob"} {
		if _, err := src.Execute(q, requester); err == nil {
			t.Fatalf("%s was granted from a plan computed before the deny preference", requester)
		}
	}
}

// The same rule under real concurrency (run with -race): planners keep
// missing and Putting while a deny-all preference lands; once
// AddPreference has returned, no Execute that starts afterwards is
// granted.
func TestNoGrantAfterAddPreferenceReturnsUnderConcurrentPlanners(t *testing.T) {
	src := auditedCachingSource(t)
	var denied atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				// A few literals per worker: every entry is re-asked soon
				// after it is Put, so a stale one would be found.
				q := piql.MustParse(fmt.Sprintf("FOR //patients/row WHERE //age > %d RETURN //age PURPOSE research", 20+(i+w)%6))
				after := denied.Load()
				_, err := src.Execute(q, fmt.Sprintf("r%d", w))
				if after && err == nil {
					t.Errorf("worker %d iteration %d: granted after AddPreference(deny-all) returned", w, i)
					return
				}
				if i == 50 {
					started <- struct{}{}
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-started
	}
	deny, _ := policy.NewPolicy("subject", policy.Deny)
	if err := src.AddPreference(deny); err != nil {
		t.Error(err)
	}
	denied.Store(true)
	wg.Wait()
}

// A warm query does no planning-shaped work: cache lookups → audit →
// execute → preserve → tag. The bound fails if rewriting, optimization,
// relational compilation or a query rendering creep back onto the hit
// path, for a requester never seen before as much as for a repeat.
func TestWarmExecuteAllocationBound(t *testing.T) {
	local, err := NewLocal(benchSource(t, 64), []byte("salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Query(bg, benchFig1a, "warm-up"); err != nil {
		t.Fatal(err)
	}
	requesters := make([]string, 256)
	for i := range requesters {
		requesters[i] = fmt.Sprintf("r%04d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if _, err := local.Query(bg, benchFig1a, requesters[i%len(requesters)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > warmFig1aAllocBound {
		t.Fatalf("warm query of the Figure 1a aggregate: %v allocs, bound %d", allocs, warmFig1aAllocBound)
	}
}

// A warm plain query renders its selected rows as text once and copies
// them once for preservation: the bound fails if the selection copies its
// rows as Values again, if a preservation step copies them again, or if
// Collapse sizes its output to its input.
func TestWarmSelectionAllocationBound(t *testing.T) {
	local, err := NewLocal(benchSource(t, 64), []byte("salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Query(bg, benchSelection, "warm-up"); err != nil {
		t.Fatal(err)
	}
	requesters := make([]string, 256)
	for i := range requesters {
		requesters[i] = fmt.Sprintf("r%04d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		if _, err := local.Query(bg, benchSelection, requesters[i%len(requesters)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > warmSelectionAllocBound {
		t.Fatalf("warm query of the selection: %v allocs, bound %d", allocs, warmSelectionAllocBound)
	}
}
