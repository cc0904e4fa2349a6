package source

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privateiye/internal/audit"
	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
)

// memoHits reads piye_source_queries_total{outcome="memo"}: the queries
// a plan's answer memo served.
func memoHits(src *Source) uint64 {
	return src.cfg.Obs.Counter("piye_source_queries_total", "source", src.cfg.Name, "outcome", outcomeMemo).Value()
}

// memoSource is a source over patientsCatalog that preserves with
// Identity (NewRegistry's technique for every class), which draws no
// randomness, so each aggregate's answer is memoised. It counts its
// outcomes and keeps its traces; log, when non-nil, audits sequences.
func memoSource(t *testing.T, log *audit.Log) *Source {
	t.Helper()
	pol, err := policy.NewPolicy("s", policy.Allow)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{
		Name: "s", Catalog: patientsCatalog(t), Policy: pol, Registry: preserve.NewRegistry(),
		Audit: log, PlanCache: 64, Obs: obs.NewRegistry(), Trace: obs.NewTracer(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func patientsTable(t *testing.T, src *Source) *relational.Table {
	t.Helper()
	tab, err := src.cfg.Catalog.Table("patients")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// A memo hit tells the requester nothing the audit has not allowed: the
// sequence auditor still runs first, under the asking requester's name.
// mallory's aggregate overlaps her own earlier one, so it is refused
// although the answer sits current in its plan's memo and is served to
// the next requester who may have it.
func TestAnswerMemoHitStillAudited(t *testing.T) {
	log, err := audit.NewLog(audit.Config{Population: 50, MinSetSize: 3, MaxOverlap: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := memoSource(t, log)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research")
	tracker := piql.MustParse("FOR //patients/row WHERE //age > 31 RETURN AVG(//age) AS a PURPOSE research")
	first, err := src.Execute(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := src.Execute(q, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if hit != first || memoHits(src) != 1 {
		t.Fatalf("carol should be served alice's answer from the memo: same=%v hits=%d", hit == first, memoHits(src))
	}
	if _, err := src.Execute(tracker, "mallory"); err != nil {
		t.Fatal(err)
	}
	for _, ask := range []string{"overlapping", "repeated"} {
		_, err := src.Execute(q, "mallory")
		if err == nil {
			t.Fatalf("mallory's %s aggregate must be refused by her sequence audit, memo or not", ask)
		}
		q = tracker
	}
	if memoHits(src) != 1 {
		t.Fatalf("a refused query was counted as a memo hit: %d", memoHits(src))
	}
	if _, err := src.Execute(piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research"), "dave"); err != nil {
		t.Fatal(err)
	}
	if memoHits(src) != 2 {
		t.Fatalf("the memo should still serve a requester the audit allows: hits %d", memoHits(src))
	}
	// dave's trace: a plan and an audit span, and no execute or preserve
	// span — those stages did not run.
	last := src.cfg.Trace.Last(1)
	var stages []string
	for _, sp := range last[0].Spans {
		stages = append(stages, sp.Stage)
	}
	if got := strings.Join(stages, ","); got != "plan,audit" || last[0].Outcome != outcomeMemo {
		t.Fatalf("a memo hit's trace: spans %s, outcome %q; want plan,audit memo", got, last[0].Outcome)
	}
}

// sampledRegistry draws from the random stream for every class.
func sampledRegistry() *preserve.Registry {
	reg := preserve.NewRegistry()
	for _, b := range preserve.Classes() {
		reg.Register(b, preserve.Pipeline{Steps: []preserve.Technique{
			preserve.RoundNumeric{Column: "a", Places: 0},
			preserve.RandomSample{P: 0.7},
		}})
	}
	return reg
}

// memoTwin is classedSource with its outcomes counted, the given
// preservation registry, and an auditor sized for the rows the
// differential inserts.
func memoTwin(t *testing.T, planCache int, reg *preserve.Registry) *Source {
	t.Helper()
	pol, err := policy.NewPolicy("s", policy.Allow,
		policy.Rule{Item: "//patients/row/id", Purpose: "any", Effect: policy.Deny},
	)
	if err != nil {
		t.Fatal(err)
	}
	log, err := audit.NewLog(audit.Config{Population: 200, MinSetSize: 3, MaxOverlap: 200})
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{
		Name: "s", Catalog: patientsCatalog(t), Policy: pol, Access: classedStore(t), Registry: reg,
		Audit: log, Seed: 11, PlanCache: planCache, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// The memo may change latency, never the answer. A memoising source and
// a twin with no cache at all take the same seeded calls from many
// requesters over three access classes, with an Insert, a preference
// and an access change landing between calls; every answer's encoding
// agrees byte for byte, and so does every refusal. With RandomSample in
// the pipeline nothing is memoised and the twins still agree call for
// call: the memo leaves the random stream as it was.
func TestAnswerMemoDifferentialAgainstUncachedTwin(t *testing.T) {
	queries := []string{
		"FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research",
		"FOR //patients/row WHERE //age > 40 RETURN AVG(//age) AS a, COUNT(*) AS n PURPOSE research",
		"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n, AVG(//age) AS a PURPOSE research",
		"FOR //patients/row GROUP BY //zip RETURN COUNT(*) AS n PURPOSE research",
		"FOR //patients/row WHERE //age > 55 RETURN //age, //sex PURPOSE research",
	}
	requesters := append([]string(nil), classedRequesters...)
	for i := 0; i < 10; i++ {
		requesters = append(requesters, fmt.Sprintf("u%d", i))
	}
	type call struct{ requester, query string }
	var calls []call
	for _, r := range requesters {
		for _, q := range queries {
			calls = append(calls, call{r, q})
		}
	}
	rand.New(rand.NewSource(44)).Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

	insert := func(src *Source) error {
		tab := patientsTable(t, src)
		return tab.Insert(tab.Rows()[tab.Len()%7])
	}
	events := []func(*Source) error{
		insert,
		func(src *Source) error {
			pref, err := policy.NewPolicy("subject", policy.Allow,
				policy.Rule{Item: "//patients/row/sex", Purpose: "any", Effect: policy.Deny})
			if err != nil {
				return err
			}
			return src.AddPreference(pref)
		},
		func(src *Source) error { src.cfg.Access.RBAC.Assign("alice", "clinician"); return nil },
		insert,
	}
	// The events land at even intervals through each pass.
	at := map[int]func(*Source) error{}
	for e, ev := range events {
		at[(e+1)*len(calls)/(len(events)+1)] = ev
	}
	render := func(a *Answer, err error) string {
		if err != nil {
			return "refused: " + err.Error()
		}
		return a.Node.String()
	}

	for _, tc := range []struct {
		name     string
		registry func() *preserve.Registry
		memoised bool // whether the memoising twin serves hits at all
	}{
		{"identity", preserve.NewRegistry, true},
		{"default", preserve.DefaultRegistry, true},
		{"sampled", sampledRegistry, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memo, plain := memoTwin(t, 256, tc.registry()), memoTwin(t, 0, tc.registry())
			answered, refused := 0, 0
			for pass := 0; pass < 2; pass++ {
				for i, c := range calls {
					if ev := at[i]; ev != nil {
						for _, src := range []*Source{memo, plain} {
							if err := ev(src); err != nil {
								t.Fatal(err)
							}
						}
					}
					q := piql.MustParse(c.query)
					ma, merr := memo.Execute(q, c.requester)
					pa, perr := plain.Execute(q, c.requester)
					if got, want := render(ma, merr), render(pa, perr); got != want {
						t.Fatalf("pass %d call %d (%s, %q): memoising and uncached twins differ\nmemo:     %s\nuncached: %s", pass, i, c.requester, c.query, got, want)
					}
					if merr != nil {
						refused++
					} else {
						answered++
					}
				}
			}
			t.Logf("%d answered (%d from the memo), %d refused", answered, memoHits(memo), refused)
			if answered == 0 || refused == 0 {
				t.Fatalf("degenerate run: %d answered, %d refused", answered, refused)
			}
			if hits := memoHits(memo); (hits > 0) != tc.memoised {
				t.Fatalf("the memoising twin served %d answers from its memo; want some: %v", hits, tc.memoised)
			}
			if hits := memoHits(plain); hits != 0 {
				t.Fatalf("PlanCache 0 must memoise nothing: %d hits", hits)
			}
		})
	}
}

// Inserts race memo hits (run with -race): once Insert has returned, no
// query that starts afterwards is served a count from before it.
func TestAnswerMemoNeverOlderThanAReturnedInsert(t *testing.T) {
	src := memoSource(t, nil)
	tab := patientsTable(t, src)
	row, base := tab.Rows()[0], tab.Len()
	q := piql.MustParse("FOR //patients/row RETURN COUNT(*) AS n PURPOSE research")
	count := func(requester string) (int, error) {
		a, err := src.Execute(q, requester)
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(a.Result.Rows[0][0])
	}

	const inserts = 200
	var inserted atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				floor := base + int(inserted.Load())
				n, err := count(fmt.Sprintf("r%d-%d", w, i))
				if err != nil {
					t.Error(err)
					return
				}
				if n < floor {
					t.Errorf("served COUNT %d after %d rows were in", n, floor)
					return
				}
			}
		}(w)
	}
	for i := 0; i < inserts; i++ {
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
		inserted.Add(1)
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	for _, r := range []string{"last", "after-last"} {
		if n, err := count(r); err != nil || n != base+inserts {
			t.Fatalf("after every Insert: COUNT %d (%v), want %d", n, err, base+inserts)
		}
	}
	if memoHits(src) == 0 {
		t.Fatal("no query was served from the memo")
	}
}
