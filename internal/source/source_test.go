package source

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"privateiye/internal/anonymity"
	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/xmltree"
)

// bg is the background context for endpoint calls that need no deadline.
var bg = context.Background()

func hospitalSource(t testing.TB) *Source {
	t.Helper()
	g := clinical.NewGenerator(41)
	cat := relational.NewCatalog()
	patients, err := g.Patients("patients", 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	comp, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(comp); err != nil {
		t.Fatal(err)
	}

	pol, err := policy.NewPolicy("hospitalA", policy.Deny,
		policy.Rule{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//patients/row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//patients/row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
	)
	if err != nil {
		t.Fatal(err)
	}
	view, err := policy.NewPrivacyView("hospitalA-private",
		policy.ViewItem{Item: "//patients/row/name", Sensitivity: policy.High},
		policy.ViewItem{Item: "//patients/row/id", Sensitivity: policy.High},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{
		Name:    "hospitalA",
		Catalog: cat,
		Policy:  pol,
		View:    view,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestNewValidation(t *testing.T) {
	pol, _ := policy.NewPolicy("p", policy.Deny)
	if _, err := New(Config{Catalog: relational.NewCatalog(), Policy: pol}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := New(Config{Name: "s", Catalog: relational.NewCatalog()}); err == nil {
		t.Error("missing policy should fail")
	}
	if _, err := New(Config{Name: "s", Policy: pol}); err == nil {
		t.Error("no data should fail")
	}
}

func TestSummaryRedaction(t *testing.T) {
	src := hospitalSource(t)
	shared := src.Summary()
	if shared.Has("/patients/row/name") {
		t.Error("private name path leaked into shared summary")
	}
	if !shared.Has("/patients/row/age") {
		t.Error("public age path missing from summary")
	}
	// The full internal summary still knows the name path (the rewriter
	// needs it).
	if !src.summary.Has("/patients/row/name") {
		t.Error("internal summary should be complete")
	}
}

func TestExecuteRelationalAggregate(t *testing.T) {
	src := hospitalSource(t)
	q := piql.MustParse("FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.8")
	ans, err := src.Execute(q, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) != 3 {
		t.Fatalf("groups = %d, want 3: %v", len(ans.Result.Rows), ans.Result.Rows)
	}
	// The aggregate-inference mitigation applies (cluster KB routes
	// grouped aggregates over rates there): avg_rate is rounded to
	// integers.
	for _, row := range ans.Result.Rows {
		if strings.Contains(row[1], ".") {
			t.Errorf("avg_rate %q should be rounded by mitigation (technique %s)", row[1], ans.Technique)
		}
	}
	if ans.Plan == nil || ans.Node == nil {
		t.Error("answer missing plan or tagged node")
	}
	if got, _ := ans.Node.Attr("source"); got != "hospitalA" {
		t.Errorf("tag source = %q", got)
	}
}

func TestExecuteDeniesIdentifiers(t *testing.T) {
	src := hospitalSource(t)
	// id is denied for any purpose.
	q := piql.MustParse("FOR //patients/row RETURN //id PURPOSE research")
	if _, err := src.Execute(q, "researcher"); err == nil {
		t.Fatal("id query should be fully denied")
	}
	// Mixed query survives with id dropped.
	q = piql.MustParse("FOR //patients/row WHERE //age > 40 RETURN //id, //age PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ans.Result.Columns {
		if c == "id" {
			t.Error("id column survived")
		}
	}
	if len(ans.Rewrite.DroppedReturns) != 1 {
		t.Errorf("dropped = %+v", ans.Rewrite.DroppedReturns)
	}
}

func TestExecutePurposeMatters(t *testing.T) {
	src := hospitalSource(t)
	q := piql.MustParse("FOR //patients/row RETURN //name PURPOSE treatment MAXLOSS 0.9")
	if _, err := src.Execute(q, "doc"); err != nil {
		t.Errorf("name for treatment should pass: %v", err)
	}
	q = piql.MustParse("FOR //patients/row RETURN //name PURPOSE marketing")
	if _, err := src.Execute(q, "doc"); err == nil {
		t.Error("name for marketing should be denied")
	}
}

func TestExecuteApproximateTagResolution(t *testing.T) {
	src := hospitalSource(t)
	// "gender" is a synonym of the source's "sex" column.
	q := piql.MustParse("FOR //patients/row WHERE //gender = 'F' RETURN //age PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) == 0 {
		t.Fatal("resolver should map gender->sex and find rows")
	}
	// Roughly half the 200 patients are F.
	if len(ans.Result.Rows) < 60 || len(ans.Result.Rows) > 140 {
		t.Errorf("F rows = %d, want around 100", len(ans.Result.Rows))
	}
}

func TestExecuteXMLDocsSource(t *testing.T) {
	doc, err := xmltree.ParseString(`
<clinic>
  <patient><name>Ana</name><age>44</age><diagnosis>diabetes</diagnosis></patient>
  <patient><name>Ben</name><age>61</age><diagnosis>asthma</diagnosis></patient>
</clinic>`)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := policy.NewPolicy("clinic", policy.Deny,
		policy.Rule{Item: "//patient/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
	)
	src, err := New(Config{Name: "clinic", Docs: []*xmltree.Node{doc}, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse("FOR //patient WHERE //age > 50 RETURN //age PURPOSE research")
	ans, err := src.Execute(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	// One patient matches; age is a quasi-identifier, so the identity-
	// disclosure mitigation generalizes it to a band containing 61.
	if len(ans.Result.Rows) != 1 || ans.Result.Rows[0][0] != "60-69" {
		t.Errorf("XML source rows = %v (technique %s)", ans.Result.Rows, ans.Technique)
	}
}

// auditedSource is a 50-patient source whose auditor refuses query sets
// under 3 individuals or overlapping an earlier one in more than 5.
func auditedSource(t *testing.T) *Source {
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
	src, err := New(Config{Name: "s", Catalog: cat, Policy: pol, Audit: log})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestAuditStopsRepeatedAggregates(t *testing.T) {
	src := auditedSource(t)
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research")
	if _, err := src.Execute(q, "snooper"); err != nil {
		t.Fatalf("first aggregate should pass: %v", err)
	}
	// The same query again overlaps itself completely: refused.
	if _, err := src.Execute(q, "snooper"); err == nil {
		t.Fatal("repeated aggregate should be refused by overlap control")
	}
	// A different requester is unaffected.
	if _, err := src.Execute(q, "other"); err != nil {
		t.Errorf("other requester should pass: %v", err)
	}
}

func TestProfilesRespectPrivacyView(t *testing.T) {
	src := hospitalSource(t)
	for _, p := range src.Profiles() {
		if p.Name == "name" || p.Name == "id" {
			t.Errorf("private field %q profiled for sharing", p.Name)
		}
	}
}

func TestTransformToRelational(t *testing.T) {
	src := hospitalSource(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"FOR //patients/row WHERE //age > 40 RETURN //age", true},
		{"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n, AVG(//age) AS a", true},
		{"FOR //patients/row WHERE //name CONTAINS 'An' RETURN //age", true},
		{"FOR //patients/row WHERE NOT //age > 40 RETURN //age", true},
		{"FOR //patients/row WHERE EXISTS //age RETURN //age", false},  // EXISTS: XML path
		{"FOR //unknown/row RETURN //age", false},                      // unknown table
		{"FOR //patients/row RETURN //age, COUNT(*)", false},           // mixed plain+agg
		{"FOR //patients/row WHERE //age = 'abc' RETURN //age", false}, // untypeable literal
	}
	for _, tc := range cases {
		q := piql.MustParse(tc.src)
		_, ok := TransformToRelational(q, src.cfg.Catalog, src.resolver)
		if ok != tc.want {
			t.Errorf("TransformToRelational(%q) = %v, want %v", tc.src, ok, tc.want)
		}
	}
}

func TestTransformedSQLAgreesWithXMLFallback(t *testing.T) {
	src := hospitalSource(t)
	// Same query through both engines gives identical row counts.
	q := piql.MustParse("FOR //patients/row WHERE //age >= 40 AND //sex = 'F' RETURN //age, //sex PURPOSE research MAXLOSS 0.9")
	rq, ok := TransformToRelational(q, src.cfg.Catalog, src.resolver)
	if !ok {
		t.Fatal("should transform")
	}
	relRes, err := rq.Execute(src.cfg.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := src.cfg.Catalog.Table("patients")
	doc := relational.TableToXML(tab)
	xmlRes, err := q.Evaluate(doc, piql.EvalOptions{Resolver: src.resolver})
	if err != nil {
		t.Fatal(err)
	}
	if len(relRes.Rows) != len(xmlRes.Rows) {
		t.Errorf("engines disagree: relational %d rows, xml %d rows", len(relRes.Rows), len(xmlRes.Rows))
	}
	if len(relRes.Rows) == 0 {
		t.Error("test query matched nothing")
	}
}

func TestHTTPEndpointParity(t *testing.T) {
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	client := NewClient(server.URL, "hospitalA")

	// Description parity: one GET /summary carries the summary's paths,
	// the profiles and the suites in preference order.
	ld, _ := local.Describe(bg)
	cd, err := client.Describe(bg)
	if err != nil {
		t.Fatal(err)
	}
	if lp, cp := sharedPaths(ld.Summary), sharedPaths(cd.Summary); len(lp) == 0 || !slices.Equal(lp, cp) {
		t.Errorf("summary paths differ:\n local %v\nclient %v", lp, cp)
	}
	if len(ld.Profiles) == 0 || !reflect.DeepEqual(ld.Profiles, cd.Profiles) {
		t.Errorf("profiles differ:\n local %v\nclient %v", ld.Profiles, cd.Profiles)
	}
	if !slices.Equal(ld.Suites, cd.Suites) {
		t.Errorf("suites differ: local %v, client %v", ld.Suites, cd.Suites)
	}

	// Query over HTTP.
	qs := "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"
	node, err := client.Query(bg, qs, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "answer" {
		t.Errorf("answer root = %q", node.Name)
	}
	// A denied query and a bad query text are the source's answer, in
	// process and over HTTP alike: errors that say they are not worth
	// retrying.
	for _, ep := range []Endpoint{local, client} {
		for _, q := range []string{"FOR //patients/row RETURN //id PURPOSE research", "not piql at all"} {
			_, err := ep.Query(bg, q, "researcher")
			var r interface{ Retryable() bool }
			if !errors.As(err, &r) || r.Retryable() {
				t.Errorf("%T: %q = %v, want a non-retryable answer", ep, q, err)
			}
		}
	}

	// PSI round trip over HTTP.
	blinded, err := client.PSIBlinded(bg, "sex", "")
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := client.PSIExponentiate(bg, blinded)
	if err != nil {
		t.Fatal(err)
	}
	if doubled.Attrs["n"] != blinded.Attrs["n"] || len(doubled.Text) != len(blinded.Text) {
		t.Errorf("psi exponentiate changed cardinality: n=%s in, n=%s out", blinded.Attrs["n"], doubled.Attrs["n"])
	}
}

func TestNewLocalValidation(t *testing.T) {
	src := hospitalSource(t)
	if _, err := NewLocal(nil, []byte("s"), nil); err == nil {
		t.Error("nil source should fail")
	}
	l, err := NewLocal(src, []byte("s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.Describe(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Suites, []string{psi.SuiteNameX25519, psi.SuiteNameModP2048}) {
		t.Errorf("default advertisement = %v, want [x25519 modp2048]", d.Suites)
	}
	// The advertisement is the caller's copy.
	d.Suites[0] = "changed"
	if again, _ := l.Describe(bg); again.Suites[0] != psi.SuiteNameX25519 {
		t.Errorf("a caller's edit reached the advertisement: %v", again.Suites)
	}
}

func TestAddPreferenceTightensDisclosure(t *testing.T) {
	src := hospitalSource(t)
	q := piql.MustParse("FOR //patients/row RETURN //age PURPOSE research MAXLOSS 0.9")
	if _, err := src.Execute(q, "r"); err != nil {
		t.Fatalf("age should pass before the preference: %v", err)
	}
	// A data subject registers a preference that forbids research use of
	// age entirely.
	pref, err := policy.NewPolicy("subject-7", policy.Deny,
		policy.Rule{Item: "//patients/row/age", Purpose: "research", Effect: policy.Deny},
		policy.Rule{Item: "//patients//*", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
		policy.Rule{Item: "//compliance//*", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddPreference(pref); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Execute(q, "r"); err == nil {
		t.Fatal("preference should now deny research use of age")
	}
	// Other purposes covered by the preference still pass.
	q2 := piql.MustParse("FOR //patients/row RETURN //age PURPOSE treatment MAXLOSS 0.9")
	if _, err := src.Execute(q2, "r"); err != nil {
		t.Errorf("treatment should still pass: %v", err)
	}
	if err := src.AddPreference(nil); err == nil {
		t.Error("nil preference should error")
	}
	if got := len(src.Preferences()); got != 1 {
		t.Errorf("preferences = %d", got)
	}
}

func TestSourceWithCertifiedKAnonymity(t *testing.T) {
	// A source whose preservation KB routes identity breaches to the
	// certified k-anonymizer: every released identifying result is
	// provably k-anonymous, not just heuristically coarsened.
	g := clinical.NewGenerator(77)
	cat := relational.NewCatalog()
	patients, err := g.Patients("patients", 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	pol, _ := policy.NewPolicy("s", policy.Allow)
	reg := preserve.NewRegistry()
	kcfg := anonymity.Config{
		K: 5,
		QIs: []anonymity.QuasiIdentifier{
			{Column: "age", Hierarchy: preserve.AgeHierarchy()},
			{Column: "zip", Hierarchy: preserve.ZipHierarchy()},
			{Column: "sex", Hierarchy: preserve.SexHierarchy()},
		},
		MaxSuppression: 0.05,
	}
	reg.Register(preserve.BreachIdentity, anonymity.Technique{Cfg: kcfg})
	reg.Register(preserve.BreachAttribute, anonymity.Technique{Cfg: kcfg})
	src, err := New(Config{Name: "s", Catalog: cat, Policy: pol, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse("FOR //patients/row RETURN //age, //zip, //sex, //diagnosis PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Technique != "kanonymize(k=5,datafly)" {
		t.Fatalf("technique = %s (breach %s)", ans.Technique, ans.Breach)
	}
	ok, min, err := anonymity.Verify(ans.Result, []string{"age", "zip", "sex"}, 5)
	if err != nil || !ok {
		t.Errorf("released result not 5-anonymous: min class %d, %v", min, err)
	}
}

func TestTransformerLiteralTypes(t *testing.T) {
	// Typed-literal coverage: float, int (with decimal point), bool and
	// failure modes, exercised through full queries on a mixed-type table.
	cat := relational.NewCatalog()
	tab := relational.NewTable("m", relational.MustSchema(
		relational.Column{Name: "f", Type: relational.TFloat},
		relational.Column{Name: "i", Type: relational.TInt},
		relational.Column{Name: "b", Type: relational.TBool},
		relational.Column{Name: "s", Type: relational.TString},
	))
	for j := 0; j < 4; j++ {
		if err := tab.Insert(relational.Row{
			relational.Float(float64(j) + 0.5),
			relational.Int(int64(j)),
			relational.Bool(j%2 == 0),
			relational.Str(fmt.Sprintf("v%d", j)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where string
		ok    bool
		rows  int
	}{
		{"//f > 1.4", true, 3},
		{"//i = 2.0", true, 1}, // decimal-point integer literal
		{"//i <= 2", true, 3},
		{"//b = true", true, 2},
		{"//s != 'v0'", true, 3},
		{"//i = 1.5", false, 0}, // fractional int: XML fallback
		{"//b = maybe", false, 0},
		{"//f = notanum", false, 0},
		{"//f > 1 OR //i = 0", true, 4},
	}
	for _, tc := range cases {
		q := piql.MustParse("FOR //m/row WHERE " + tc.where + " RETURN //s")
		rq, ok := TransformToRelational(q, cat, nil)
		if ok != tc.ok {
			t.Errorf("WHERE %s: transformable = %v, want %v", tc.where, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		res, err := rq.Execute(cat)
		if err != nil {
			t.Fatalf("WHERE %s: %v", tc.where, err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("WHERE %s: rows = %d, want %d", tc.where, len(res.Rows), tc.rows)
		}
	}
}

func TestTransformerOrderByVariants(t *testing.T) {
	src := hospitalSource(t)
	cases := []struct {
		q    string
		want bool
	}{
		{"FOR //patients/row RETURN //age ORDER BY age LIMIT 5", true},
		{"FOR //patients/row RETURN //age ORDER BY age DESC", false}, // desc: XML path
		{"FOR //patients/row RETURN //age ORDER BY nosuch", false},   // unknown col
		{"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n ORDER BY n", true},
		{"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n ORDER BY sex", true},
	}
	for _, tc := range cases {
		q := piql.MustParse(tc.q)
		_, ok := TransformToRelational(q, src.cfg.Catalog, src.resolver)
		if ok != tc.want {
			t.Errorf("%s: transformable = %v, want %v", tc.q, ok, tc.want)
		}
	}
}

func TestExecuteRelationalOnlyXMLFallback(t *testing.T) {
	// A relational-only source answering an EXISTS query (no SQL shape)
	// must fall back to evaluating over the XML projection of its tables.
	src := hospitalSource(t)
	q := piql.MustParse("FOR //patients/row WHERE EXISTS //age RETURN //age PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) != 200 {
		t.Errorf("fallback rows = %d, want 200", len(ans.Result.Rows))
	}
}

func TestClientErrorPaths(t *testing.T) {
	// A client pointed at nothing reports transport errors with context.
	c := NewClient("http://127.0.0.1:1", "ghost")
	if c.Name() != "ghost" {
		t.Errorf("name = %q", c.Name())
	}
	if _, err := c.Describe(bg); err == nil {
		t.Error("dead node should error")
	}
	if _, err := c.Query(bg, "FOR //x RETURN //y", "r"); err == nil {
		t.Error("dead node should error")
	}
}

func TestHandlerBadRequests(t *testing.T) {
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	client := server.Client()

	// Missing field param.
	resp, err := client.Get(server.URL + "/psi/blinded")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("/psi/blinded without field: status %d", resp.StatusCode)
	}
	// Bad PSI payload.
	resp, err = client.Post(server.URL+"/psi/exponentiate", "application/xml", strings.NewReader("<psi-elems><e>zz</e></psi-elems>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad psi payload: status %d", resp.StatusCode)
	}
	// Missing requester on query.
	resp, err = client.Post(server.URL+"/query", "text/plain", strings.NewReader("FOR //x RETURN //y"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing requester: status %d", resp.StatusCode)
	}
}

func TestLocalEndpointName(t *testing.T) {
	src := hospitalSource(t)
	local, _ := NewLocal(src, []byte("s"), nil)
	if local.Name() != "hospitalA" {
		t.Errorf("name = %q", local.Name())
	}
}

// A suite is resolved on every PSI call, so each suite is built once,
// not per call: resolving allocates nothing.
func TestSuiteResolutionAllocations(t *testing.T) {
	local, err := NewLocal(hospitalSource(t), []byte("s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", psi.SuiteNameX25519, psi.SuiteNameModP2048} {
		if _, err := local.suiteFor(name); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { local.suiteFor(name) }); n != 0 {
			t.Errorf("suiteFor(%q): %v allocs, want 0", name, n)
		}
	}
}

// A source exponentiates only an envelope that names its suite and
// declares its count; without either it refuses, in every suite it runs.
func TestPSIExponentiateRefusesUndescribedEnvelope(t *testing.T) {
	local, err := NewLocal(hospitalSource(t), []byte("s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []string{psi.SuiteNameX25519, psi.SuiteNameModP2048} {
		s, err := psi.SuiteByName(suite)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := psi.NewParty(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range []string{"suite", "n"} {
			env := psi.MarshalElems(s, peer.BlindBatch([]string{"F", "M"}))
			if _, err := local.PSIExponentiate(bg, env); err != nil {
				t.Fatalf("%s: a complete envelope is refused: %v", suite, err)
			}
			delete(env.Attrs, attr)
			if out, err := local.PSIExponentiate(bg, env); err == nil {
				t.Errorf("%s: envelope without %s exponentiated (%d elements)", suite, attr, len(out.Children))
			}
		}
	}
}

// nonCanonical returns a canonical two-element envelope in the suite
// and every other spelling of its elements a source must refuse, by
// name: each a twin of the canonical one but for its spelling or its
// element.
func nonCanonical(t *testing.T, suite string) (canon *xmltree.Node, rows map[string]*xmltree.Node) {
	t.Helper()
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	s, err := psi.SuiteByName(suite)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := psi.NewParty(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two elements: the text's last character has unused bits in
	// both suites.
	canon = psi.MarshalElems(s, peer.BlindBatch([]string{"F", "M"}))
	text := canon.Text
	at := func(c int, ch string) string { return text[:c] + ch + text[c+1:] }
	last := strings.IndexByte(alphabet, text[len(text)-1])
	perElement := xmltree.NewElem("psi-elems").SetAttr("n", "2").SetAttr("suite", suite)
	for _, e := range peer.BlindBatch([]string{"F", "M"}) {
		perElement.Append(xmltree.NewText("e", fmt.Sprintf("%x", s.AppendElement(nil, e))))
	}
	return canon, map[string]*xmltree.Node{
		"short":                 xmltree.NewText("psi-elems", text[:len(text)-1]).SetAttr("n", "2").SetAttr("suite", suite),
		"long":                  xmltree.NewText("psi-elems", text+"A").SetAttr("n", "2").SetAttr("suite", suite),
		"padded":                xmltree.NewText("psi-elems", text+"=").SetAttr("n", "2").SetAttr("suite", suite),
		"newline":               xmltree.NewText("psi-elems", at(7, "\n")).SetAttr("n", "2").SetAttr("suite", suite),
		"four newlines":         xmltree.NewText("psi-elems", text[:7]+"\n\n\n\n"+text[11:]).SetAttr("n", "2").SetAttr("suite", suite),
		"padding in place":      xmltree.NewText("psi-elems", at(len(text)-1, "=")).SetAttr("n", "2").SetAttr("suite", suite),
		"url-safe alphabet":     xmltree.NewText("psi-elems", at(7, "_")).SetAttr("n", "2").SetAttr("suite", suite),
		"nonzero trailing bits": xmltree.NewText("psi-elems", at(len(text)-1, alphabet[last|1:last|1+1])).SetAttr("n", "2").SetAttr("suite", suite),
		"per-element <e> form":  perElement,
		"n one short":           xmltree.NewText("psi-elems", text).SetAttr("n", "1").SetAttr("suite", suite),
		"text beside <e> child": xmltree.NewText("psi-elems", text).SetAttr("n", "2").SetAttr("suite", suite).Append(perElement.Children[0]),
		"another element name":  xmltree.NewText("psi-elem", text).SetAttr("n", "2").SetAttr("suite", suite),
	}
}

// A source exponentiates only a column in the one packed canonical form,
// in every suite it runs: every other spelling of the same elements, and
// the per-element form of builds before it, is refused in process and
// answered 400 over HTTP.
func TestPSIExponentiateRefusesNonCanonicalText(t *testing.T) {
	local, err := NewLocal(hospitalSource(t), []byte("s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	for _, suite := range []string{psi.SuiteNameX25519, psi.SuiteNameModP2048} {
		canon, rows := nonCanonical(t, suite)
		refusesAll(t, local, server.URL, suite, rows)
		if _, err := local.PSIExponentiate(bg, canon); err != nil {
			t.Errorf("%s: the canonical envelope is refused: %v", suite, err)
		}
	}
}

// refusesAll checks that local refuses every row in process and that its
// handler at url answers each one 400.
func refusesAll(t *testing.T, local *Local, url, suite string, rows map[string]*xmltree.Node) {
	t.Helper()
	for name, env := range rows {
		if out, err := local.PSIExponentiate(bg, env); err == nil {
			t.Errorf("%s: %s envelope exponentiated (n=%s)", suite, name, out.Attrs["n"])
		}
		resp, err := http.Post(url+"/psi/exponentiate", "application/xml", strings.NewReader(env.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s envelope over HTTP: status %d, want 400", suite, name, resp.StatusCode)
		}
	}
}

// Every peer column reaches the party, and its counters read the
// per-element memo. Re-sending the same envelope gets the same bytes,
// every element a hit. An envelope with one element changed runs the
// ladder for that element, and the memo answers the other 49.
func TestPSIExponentiateWarmEnvelopeHits(t *testing.T) {
	src := benchSource(t, 0)
	local, err := NewLocal(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := psi.NewParty(psi.X25519Suite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("peer-%02d", i)
	}
	env := psi.MarshalElems(psi.X25519Suite(), peer.BlindBatch(items))
	metrics := func(items, cacheHits int) {
		t.Helper()
		var buf bytes.Buffer
		if err := src.cfg.Obs.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`piye_psi_exponentiate_items_total{source="bench",suite="x25519"} %d`, items),
			fmt.Sprintf(`piye_psi_exponentiate_cache_hits_total{source="bench",suite="x25519"} %d`, cacheHits),
		} {
			if !strings.Contains(buf.String(), want+"\n") {
				t.Errorf("metrics lack %q", want)
			}
		}
	}
	first, err := local.PSIExponentiate(bg, env)
	if err != nil {
		t.Fatal(err)
	}
	metrics(n, 0)
	second, err := local.PSIExponentiate(bg, env)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("the warm answer differs from the cold one")
	}
	metrics(2*n, n)

	items[0] = "peer-changed"
	changed, err := local.PSIExponentiate(bg, psi.MarshalElems(psi.X25519Suite(), peer.BlindBatch(items)))
	if err != nil {
		t.Fatal(err)
	}
	metrics(3*n, n+n-1)
	size := psi.X25519Suite().ElementSize()
	was, err1 := base64.RawStdEncoding.DecodeString(first.Text)
	now, err2 := base64.RawStdEncoding.DecodeString(changed.Text)
	if err1 != nil || err2 != nil || bytes.Equal(was[:size], now[:size]) || !bytes.Equal(was[size:], now[size:]) {
		t.Errorf("one changed element should change exactly the first answer (%v, %v)", err1, err2)
	}
}

func TestClientDescribeOlderSummaryAdvertisesNone(t *testing.T) {
	// A node whose /summary carries no suites, as an older build's does,
	// gets no advertisement made up for it: schema refresh holds the node
	// to modp2048 (the mediator's and e2e's negotiation tests).
	older := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/summary" {
			http.NotFound(w, r)
			return
		}
		WriteNode(w, hospitalSource(t).Summary().ToNode())
	}))
	defer older.Close()
	d, err := NewClient(older.URL, "older").Describe(bg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Suites != nil || d.Profiles != nil || d.Summary.Len() == 0 {
		t.Fatalf("an older summary read as suites %v, %d profiles, %d paths; want none, none and its paths", d.Suites, len(d.Profiles), d.Summary.Len())
	}

	// A current server advertises the curve first.
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	d, err = NewClient(server.URL, "hospitalA").Describe(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Suites; len(got) != 2 || got[0] != psi.SuiteNameX25519 || got[1] != psi.SuiteNameModP2048 {
		t.Fatalf("advertised = %v, want [x25519 modp2048]", got)
	}
}

// A plain answer ships each distinct row once with how many rows it
// stands for; Answer.Result keeps every row for in-process callers, and
// the loss estimate is the row-for-row one. Aggregate answers, whose rows
// are distinct by group key, and empty ones ship as they always did.
func TestPlainAnswerShipsDistinctRowsWithMultiplicities(t *testing.T) {
	src := hospitalSource(t)
	ans, err := src.Execute(piql.MustParse("FOR //patients/row WHERE //age > 40 RETURN //age, //sex PURPOSE research MAXLOSS 0.9"), "researcher")
	if err != nil {
		t.Fatal(err)
	}
	counts, _ := ans.Node.Attr("counts")
	shipped, err := piql.ResultFromNode(ans.Node.Child("result"), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(shipped.Rows) >= len(ans.Result.Rows)/2 || ans.Result.Mult != nil || ans.EstimatedLoss <= 0 {
		t.Fatalf("shipped %d rows for the %d released (Result.Mult %v, loss %v)", len(shipped.Rows), len(ans.Result.Rows), ans.Result.Mult, ans.EstimatedLoss)
	}
	want := ans.Result.Collapse()
	if !reflect.DeepEqual(shipped.Rows, want.Rows) || !reflect.DeepEqual(shipped.Mult, want.Mult) {
		t.Errorf("shipped %v × %v, released %v × %v", shipped.Rows, shipped.Mult, want.Rows, want.Mult)
	}
	for _, q := range []string{
		"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.8",
		"FOR //patients/row WHERE //age > 400 RETURN //age PURPOSE research MAXLOSS 0.9",
	} {
		ans, err := src.Execute(piql.MustParse(q), "researcher")
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := ans.Node.Attr("counts"); ok || len(ans.Node.Child("result").Children) != len(ans.Result.Rows) {
			t.Errorf("%s: counts %q on %d shipped rows for %d released", q, c, len(ans.Node.Child("result").Children), len(ans.Result.Rows))
		}
	}
}

// A plain answer's raw result names its columns with the plan's own slice
// (relational.Query.ExecuteText): no technique of DefaultRegistry, nor
// loss estimation, collapsing or tagging, writes through it, so a cached
// plan names the same columns after every answer it served.
func TestPlanColumnsSurviveEveryTechnique(t *testing.T) {
	base := hospitalSource(t).cfg
	for _, class := range preserve.Classes() {
		tech := preserve.DefaultRegistry().For(class)
		t.Run(class.String(), func(t *testing.T) {
			reg := preserve.NewRegistry()
			for _, c := range preserve.Classes() {
				reg.Register(c, tech)
			}
			cfg := base
			cfg.Registry, cfg.PlanCache = reg, 16
			src, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, text := range []string{
				"FOR //patients/row WHERE //age > 40 RETURN //age, //sex PURPOSE research MAXLOSS 0.9",
				"FOR //patients/row RETURN //name, //age, //sex PURPOSE treatment MAXLOSS 0.9",
			} {
				q, err := piql.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				entry, err := src.planFor(q, q.String(), "alice")
				if err != nil {
					t.Fatal(err)
				}
				if entry.rel == nil || len(entry.rel.Select) == 0 {
					t.Fatalf("%s: no relational selection planned", text)
				}
				want := slices.Clone(entry.rel.Select)
				for i := range 3 {
					ans, err := src.Execute(q, fmt.Sprintf("r%d", i))
					if err != nil {
						t.Fatal(err)
					}
					if ans.Technique != tech.Name() {
						t.Fatalf("answered under %s, want %s", ans.Technique, tech.Name())
					}
				}
				again, err := src.planFor(q, q.String(), "alice")
				if err != nil {
					t.Fatal(err)
				}
				if again != entry || !slices.Equal(entry.rel.Select, want) {
					t.Errorf("%s: the plan names %q after its answers, want %q (same entry: %v)", text, entry.rel.Select, want, again == entry)
				}
			}
		})
	}
}

// estimateLoss counts a dropped, masked or missing cell as lost and a
// coarsened one as half lost; a column named twice in the preserved result
// is read at its last place.
func TestEstimateLoss(t *testing.T) {
	before := &piql.Result{Columns: []string{"age", "name", "zip"}, Rows: [][]string{{"41", "Ann", "15213"}, {"52", "Bob", "15217"}}}
	for _, tc := range []struct {
		name  string
		after *piql.Result
		want  float64
	}{
		{"intact", before, 0},
		{"dropped, masked, coarsened and suppressed", &piql.Result{Columns: []string{"zip", "age"}, Rows: [][]string{{"*", "40-49"}}}, 5.5 / 6},
		{"a column named twice", &piql.Result{Columns: []string{"age", "name", "zip", "age"}, Rows: [][]string{{"x", "Ann", "15213", "41"}, {"x", "Bob", "", "50-59"}}}, 1.5 / 6},
		{"nothing left", &piql.Result{Columns: []string{}}, 1},
	} {
		if got := estimateLoss(before, tc.after); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: loss %v, want %v", tc.name, got, tc.want)
		}
	}
}
