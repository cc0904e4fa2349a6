package mediator

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

var salt = []byte("integration-salt")

// hospitalConfig is one hospital source: generated patients under a
// policy open for ages, sexes and (for research) names, optionally with
// ages denied again.
func hospitalConfig(t *testing.T, name string, seed uint64, n int, denyAge bool) source.Config {
	t.Helper()
	g := clinical.NewGenerator(seed)
	cat := relational.NewCatalog()
	patients, err := g.Patients("patients", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	rules := []policy.Rule{
		{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		{Item: "//patients/row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		{Item: "//patients/row/name", Purpose: "research", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	}
	if denyAge {
		rules = append(rules, policy.Rule{Item: "//patients/row/age", Purpose: "any", Effect: policy.Deny})
	}
	pol, err := policy.NewPolicy(name, policy.Deny, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return source.Config{Name: name, Catalog: cat, Policy: pol, Seed: seed}
}

func localEndpoint(t *testing.T, cfg source.Config) source.Endpoint {
	t.Helper()
	src, err := source.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// twoHospitals builds two sources with overlapping patients (by name) and
// open policies for ages, plus denied identifiers at hospital B.
func twoHospitals(t *testing.T) []source.Endpoint {
	t.Helper()
	return []source.Endpoint{
		localEndpoint(t, hospitalConfig(t, "hospitalA", 1, 60, false)),
		localEndpoint(t, hospitalConfig(t, "hospitalB", 2, 40, true)),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no endpoints should fail")
	}
	eps := twoHospitals(t)
	if _, err := New(Config{Endpoints: eps, DedupThreshold: 2}); err == nil {
		t.Error("bad threshold should fail")
	}
}

func TestMediatedSchemaMergesSources(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	schema := m.MediatedSchema()
	if !schema.Has("/patients/row/age") {
		t.Errorf("mediated schema missing age: %v", schema.Paths())
	}
}

// route matches each source's summary in place: one allocation per
// query, its result, whatever the number of summarized paths and
// whether any source is reached.
func TestRouteAllocatesOnlyItsResult(t *testing.T) {
	eps := append(twoHospitals(t), localEndpoint(t, hospitalConfig(t, "hospitalC", 3, 30, false)))
	m, err := New(Config{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"FOR //patients/row RETURN //age PURPOSE research", 3},
		{"FOR //wards/bed RETURN //age PURPOSE research", 0},
	} {
		q := piql.MustParse(tc.query)
		var got []source.Endpoint
		allocs := testing.AllocsPerRun(100, func() { got = m.route(q) })
		if len(got) != tc.want || allocs > 1 {
			t.Fatalf("%s: routed to %d sources in %v allocations; want %d in at most 1", q.For, len(got), allocs, tc.want)
		}
	}
}

func TestQueryIntegratesAcrossSources(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Age is allowed at A, denied at B: partial integration with the
	// denial recorded.
	in, err := m.Query("FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 1 || in.Answered[0] != "hospitalA" {
		t.Errorf("answered = %v", in.Answered)
	}
	if _, denied := in.Denied["hospitalB"]; !denied {
		t.Errorf("hospitalB denial missing: %v", in.Denied)
	}
	if len(in.Result.Rows) == 0 {
		t.Error("no integrated rows")
	}
}

func TestQueryAllSourcesContribute(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 0.9", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 2 {
		t.Errorf("answered = %v (denied %v)", in.Answered, in.Denied)
	}
	// 60 + 40 rows, minus exact duplicates (sex values collapse to
	// distinct rows after exact dedup!). Row content here is a single
	// column, so exact dedup collapses to at most 2 rows.
	if len(in.Result.Rows) > 2 {
		t.Errorf("exact dedup should collapse single-column duplicates: %d rows", len(in.Result.Rows))
	}
	if in.Duplicates < 96 {
		t.Errorf("duplicates = %d", in.Duplicates)
	}
}

func TestQueryFullyDeniedEverywhere(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("FOR //patients/row RETURN //id PURPOSE research", "r1"); err == nil {
		t.Error("id denied at every source should fail")
	}
	if _, err := m.Query("FOR //nonexistent/row RETURN //x PURPOSE research", "r1"); err == nil {
		t.Error("unroutable query should fail")
	}
	if _, err := m.Query("not piql", "r1"); err == nil {
		t.Error("unparseable query should fail")
	}
}

// answersLast holds its source's answer until released. The fan-out's
// calls share one context, which ends only after every reply is in, so
// the release comes from the collection itself (Mediator.collected): the
// later-routed source's reply has been received before this one is sent.
type answersLast struct {
	source.Endpoint
	release <-chan struct{}
}

func (e answersLast) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	<-e.release
	return e.Endpoint.Query(ctx, text, requester)
}

// Two XML sources share a patient whose name is misspelled at one. The
// row kept is the first-routed source's spelling whichever source
// answers first: answers are integrated in routing order.
func TestFuzzyDedupOnNameColumn(t *testing.T) {
	mk := func(name, patient string) source.Endpoint {
		doc, err := xmltree.ParseString("<reg><patient><name>" + patient + "</name><age>50</age></patient></reg>")
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := policy.NewPolicy(name, policy.Allow)
		return localEndpoint(t, source.Config{Name: name, Docs: []*xmltree.Node{doc}, Policy: pol, Registry: preserve.NewRegistry()})
	}
	for _, laterFirst := range []bool{false, true} {
		name := "as routed"
		if laterFirst {
			name = "later-routed source answers first"
		}
		t.Run(name, func(t *testing.T) {
			first := mk("A", "Jonathan Smith")
			bCollected := make(chan struct{})
			if laterFirst {
				first = answersLast{first, bCollected}
			}
			m, err := New(Config{Endpoints: []source.Endpoint{first, mk("B", "Jonathon Smith")},
				LinkageSalt: salt, DedupColumn: "name", DedupThreshold: 0.75})
			if err != nil {
				t.Fatal(err)
			}
			var order []int
			m.collected = func(i int) {
				order = append(order, i)
				if i == 1 {
					close(bCollected)
				}
			}
			in, err := m.Query("FOR //patient RETURN //name, //age PURPOSE research MAXLOSS 1", "r")
			if err != nil {
				t.Fatal(err)
			}
			if laterFirst && !slices.Equal(order, []int{1, 0}) {
				t.Fatalf("replies collected in routing positions %v, want B's first", order)
			}
			if len(in.Result.Rows) != 1 || in.Result.Rows[0][0] != "Jonathan Smith" {
				t.Errorf("fuzzy dedup should keep the first-routed [Jonathan Smith ...] alone: %v", in.Result.Rows)
			}
			if in.Duplicates != 1 {
				t.Errorf("duplicates = %d, want 1", in.Duplicates)
			}
		})
	}
}

func TestWarehouseHybridMode(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t), WarehouseCapacity: 16, WarehouseTTL: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"
	first, err := m.Query(q, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if first.FromWarehouse {
		t.Error("first query cannot be warehoused")
	}
	second, err := m.Query(q, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromWarehouse {
		t.Error("repeat query should hit the warehouse")
	}
	if len(second.Result.Rows) != len(first.Result.Rows) {
		t.Error("warehoused result differs")
	}
	// Different requester does not share the materialization (scope is
	// requester-keyed: budgets and policies differ per requester).
	third, err := m.Query(q, "r2")
	if err != nil {
		t.Fatal(err)
	}
	if third.FromWarehouse {
		t.Error("warehouse must be requester-scoped")
	}
	hits, misses, size := m.WarehouseStats()
	if hits != 1 || size < 1 || misses < 1 {
		t.Errorf("warehouse stats = %d/%d/%d", hits, misses, size)
	}
}

func TestHistoryRecords(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "alice"); err != nil {
		t.Fatal(err)
	}
	h := m.History()
	if len(h) != 1 || h[0].Requester != "alice" {
		t.Errorf("history = %+v", h)
	}
	if !strings.Contains(h[0].Query, "//sex") {
		t.Errorf("history query = %q", h[0].Query)
	}
}

// registry is an open-policy source holding one patient per name.
func registry(t *testing.T, name string, names ...string) source.Endpoint {
	t.Helper()
	root := xmltree.NewElem("reg")
	for _, n := range names {
		root.Append(xmltree.NewElem("patient").Append(xmltree.NewText("name", n)))
	}
	pol, err := policy.NewPolicy(name, policy.Allow)
	if err != nil {
		t.Fatal(err)
	}
	return localEndpoint(t, source.Config{Name: name, Docs: []*xmltree.Node{root}, Policy: pol})
}

func TestPrivateOverlap(t *testing.T) {
	a := registry(t, "A", "alice", "bob", "carol", "dave")
	b := registry(t, "B", "carol", "erin", "alice", "alice") // duplicate alice
	m, err := New(Config{Endpoints: []source.Endpoint{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Overlap(context.Background(), "A", "B", "name")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("overlap = %d, want 2 (duplicates must not inflate)", n)
	}
	// The columns crossed packed: one text each, no per-element children.
	env, err := b.PSIBlinded(context.Background(), "name", "")
	if err != nil || len(env.Children) != 0 || env.Attrs["n"] != "4" || env.Text == "" {
		t.Errorf("B's column is not one packed text of 4 elements: %v, %d children", err, len(env.Children))
	}
}

// Negotiation picks only a suite this build can run: a name every source
// advertises but psi.SuiteByName does not resolve falls through to the
// next, and at worst to the modp2048 floor.
func TestNegotiateSuite(t *testing.T) {
	current := []string{psi.SuiteNameX25519, psi.SuiteNameModP2048}
	old := []string{"p256", psi.SuiteNameModP2048}
	for _, c := range []struct {
		name  string
		fleet [][]string
		want  string
	}{
		{"no answers", nil, psi.SuiteNameX25519},
		{"all current", [][]string{current, current}, psi.SuiteNameX25519},
		{"one pinned", [][]string{current, {psi.SuiteNameModP2048}}, psi.SuiteNameModP2048},
		{"all old", [][]string{old, old}, psi.SuiteNameModP2048},
		{"old first", [][]string{old, current}, psi.SuiteNameModP2048},
		{"nothing shared", [][]string{{"p256"}, {psi.SuiteNameX25519}}, psi.SuiteNameModP2048},
		// What a describe answer reads as when its <psi-suites> is
		// missing, empty, or names only suites this build does not run.
		{"no advertisement", [][]string{current, nil}, psi.SuiteNameModP2048},
		{"empty advertisement", [][]string{{}, current}, psi.SuiteNameModP2048},
		{"unknown names only", [][]string{current, {"p256", "p384"}}, psi.SuiteNameModP2048},
		{"nobody advertises", [][]string{nil, nil}, psi.SuiteNameModP2048},
	} {
		if got := negotiateSuite(psi.SuiteNameX25519, c.fleet); got != c.want {
			t.Errorf("%s: negotiated %q, want %q", c.name, got, c.want)
		}
	}
}

// Schema refresh asks each source one thing, its description: one call
// per source per refresh, whatever it carries.
func TestRefreshSchemaCallsEachSourceOnce(t *testing.T) {
	var chaos []*resilience.Chaos
	var eps []source.Endpoint
	for _, ep := range twoHospitals(t) {
		c := resilience.NewChaos(ep, resilience.ChaosConfig{})
		chaos, eps = append(chaos, c), append(eps, c)
	}
	m, err := New(Config{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	before := []int{chaos[0].Calls(), chaos[1].Calls()}
	if err := m.RefreshSchema(); err != nil {
		t.Fatal(err)
	}
	for i, c := range chaos {
		if n := c.Calls() - before[i]; n != 1 {
			t.Errorf("%s: a refresh made %d calls, want 1", c.Name(), n)
		}
	}
	if !m.MediatedSchema().Has("/patients/row/age") || m.PSISuite() != psi.SuiteNameX25519 {
		t.Errorf("the one call lost part of the description: suite %q", m.PSISuite())
	}
}

func TestHTTPHandlerRoundTrip(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(m))
	defer server.Close()

	// Query via HTTP.
	client := server.Client()
	httpReq, err := http.NewRequest("POST", server.URL+"/query",
		strings.NewReader("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("X-Requester", "alice")
	resp, err := client.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %s", resp.Status)
	}
	node, err := xmltree.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	in, err := IntegratedFromNode(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 2 {
		t.Errorf("integrated over HTTP: %+v", in)
	}

	// Schema endpoint.
	sresp, err := client.Get(server.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	snode, err := xmltree.Parse(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.SummaryFromNode(snode).Len() == 0 {
		t.Error("schema over HTTP empty")
	}

	// Missing requester rejected.
	bad, _ := http.NewRequest("POST", server.URL+"/query", strings.NewReader("FOR //x RETURN //y"))
	bresp, err := client.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != 400 {
		t.Errorf("missing requester status = %d", bresp.StatusCode)
	}
}

func TestIntegratedNodeRoundTrip(t *testing.T) {
	in := &Integrated{
		Result:         &piql.Result{Columns: []string{"a"}, Rows: [][]string{{"1"}}},
		Answered:       []string{"s1"},
		Denied:         map[string]string{"s2": "denied"},
		Duplicates:     3,
		AggregatedLoss: 0.25,
		FromWarehouse:  true,
	}
	back, err := IntegratedFromNode(IntegratedToNode(in))
	if err != nil {
		t.Fatal(err)
	}
	if back.Duplicates != 3 || back.AggregatedLoss != 0.25 || !back.FromWarehouse {
		t.Errorf("round trip = %+v", back)
	}
	if back.Denied["s2"] != "denied" || len(back.Answered) != 1 {
		t.Errorf("round trip lists = %+v", back)
	}
	if _, err := IntegratedFromNode(xmltree.NewElem("x")); err == nil {
		t.Error("wrong root should fail")
	}
}

func TestReaggregateAcrossSources(t *testing.T) {
	// Two sources each hold part of an events stream; grouped SUM/COUNT/
	// AVG must fold across them.
	mk := func(name string, rows [][2]string) source.Endpoint {
		doc := xmltree.NewElem("events")
		for _, r := range rows {
			doc.Append(xmltree.NewElem("event").Append(
				xmltree.NewText("region", r[0]),
				xmltree.NewText("cases", r[1]),
			))
		}
		pol, _ := policy.NewPolicy(name, policy.Allow)
		s, err := source.New(source.Config{Name: name, Docs: []*xmltree.Node{doc}, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := source.NewLocal(s, salt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	// Each group needs >= 3 rows per source or the default aggregate-
	// inference mitigation (small-count suppression) correctly drops it.
	a := mk("A", [][2]string{
		{"north", "10"}, {"north", "20"}, {"north", "30"},
		{"south", "6"}, {"south", "12"}, {"south", "18"},
	})
	b := mk("B", [][2]string{
		{"north", "40"}, {"north", "50"}, {"north", "60"},
		{"south", "12"}, {"south", "24"}, {"south", "36"},
	})
	m, err := New(Config{Endpoints: []source.Endpoint{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.Query("FOR //event GROUP BY //region RETURN SUM(//cases) AS total, COUNT(*) AS n, AVG(//cases) AS mean PURPOSE surveillance MAXLOSS 1", "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Result.Rows) != 2 {
		t.Fatalf("groups = %v", in.Result.Rows)
	}
	byRegion := map[string][]string{}
	for _, row := range in.Result.Rows {
		byRegion[row[0]] = row
	}
	north := byRegion["north"]
	if north[1] != "210" || north[2] != "6" {
		t.Errorf("north sum/count = %v", north)
	}
	// Count-weighted mean: (10+...+60)/6 = 35.
	if north[3] != "35" {
		t.Errorf("north mean = %q, want 35", north[3])
	}
	south := byRegion["south"]
	if south[1] != "108" || south[2] != "6" || south[3] != "18" {
		t.Errorf("south = %v", south)
	}
}

func TestGlobalOrderByAndLimitAcrossSources(t *testing.T) {
	mk := func(name string, ages []string) source.Endpoint {
		doc := xmltree.NewElem("reg")
		for _, a := range ages {
			doc.Append(xmltree.NewElem("patient").Append(xmltree.NewText("age", a)))
		}
		pol, _ := policy.NewPolicy(name, policy.Allow)
		reg := preserve.NewRegistry() // keep ages exact for the assertion
		s, err := source.New(source.Config{Name: name, Docs: []*xmltree.Node{doc}, Policy: pol, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := source.NewLocal(s, salt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	// Interleaved values across sources: global top-3 descending must be
	// 90, 85, 70 — which no single source can produce alone.
	m, err := New(Config{Endpoints: []source.Endpoint{
		mk("A", []string{"40", "85", "55"}),
		mk("B", []string{"90", "30", "70"}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.Query("FOR //patient RETURN //age ORDER BY age DESC LIMIT 3 PURPOSE research MAXLOSS 1", "r")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"90", "85", "70"}
	if len(in.Result.Rows) != 3 {
		t.Fatalf("rows = %v", in.Result.Rows)
	}
	for i, w := range want {
		if in.Result.Rows[i][0] != w {
			t.Errorf("row %d = %v, want %s", i, in.Result.Rows[i], w)
		}
	}
}

func TestCorrespondencesAcrossHeterogeneousSchemas(t *testing.T) {
	mk := func(name, xml string) source.Endpoint {
		doc, err := xmltree.ParseString(xml)
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := policy.NewPolicy(name, policy.Allow)
		s, err := source.New(source.Config{Name: name, Docs: []*xmltree.Node{doc}, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := source.NewLocal(s, salt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a := mk("A", `<reg><patient><dob>1971-03-05</dob><name>Ana</name></patient></reg>`)
	b := mk("B", `<reg><patient><dateOfBirth>1980-11-30</dateOfBirth><patient_name>Ben</patient_name></patient></reg>`)
	m, err := New(Config{Endpoints: []source.Endpoint{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	cs := m.Correspondences()
	got := map[string]string{}
	for _, c := range cs {
		got[c.FieldA] = c.FieldB
	}
	if got["dob"] != "dateOfBirth" {
		t.Errorf("dob correspondence missing: %+v", cs)
	}
	if got["name"] != "patient_name" {
		t.Errorf("name correspondence missing: %+v", cs)
	}
	// Identical names are not reported (trivial).
	for _, c := range cs {
		if c.FieldA == c.FieldB {
			t.Errorf("trivial correspondence reported: %+v", c)
		}
	}
}
