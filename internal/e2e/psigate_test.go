package e2e

import (
	"context"
	"crypto/rand"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/psi"
	"privateiye/internal/refusal"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// The PSI routes answer anyone who reaches a source's port, with no
// requester or purpose. These tests play the two attacks such a caller
// has (DESIGN.md §14, The PSI routes' callers) and hold the source to
// blinding only what its policy releases, in no row order, and to
// refusing the rest as an answer.

// clinicRow is one patient of the clinic: every value distinct, so a
// decoded column names its row.
type clinicRow struct{ name, zip, diagnosis string }

func clinicRows() []clinicRow {
	rows := make([]clinicRow, 12)
	for i := range rows {
		rows[i] = clinicRow{fmt.Sprintf("patient-%02d", i), fmt.Sprintf("%05d", 10000+7*i), fmt.Sprintf("icd-%02d", i)}
	}
	return rows
}

// clinicSource is a source of the clinic's table whose policy releases
// names in aggregate for treatment and zip codes as ranges for research,
// and denies diagnoses for every purpose.
func clinicSource(t *testing.T, name string) *source.Local {
	t.Helper()
	return tableSource(t, name, policy.Rule{Item: "//patients/row/diagnosis", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//patients/row/name", Purpose: "treatment", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.3},
		policy.Rule{Item: "//patients/row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7})
}

// tableSource serves the clinic's table under a default-deny policy of
// the given rules.
func tableSource(t *testing.T, name string, rules ...policy.Rule) *source.Local {
	t.Helper()
	tab := relational.NewTable("patients", relational.MustSchema(
		relational.Column{Name: "name", Type: relational.TString},
		relational.Column{Name: "zip", Type: relational.TString},
		relational.Column{Name: "diagnosis", Type: relational.TString}))
	for _, r := range clinicRows() {
		if err := tab.Insert(relational.Row{relational.Str(r.name), relational.Str(r.zip), relational.Str(r.diagnosis)}); err != nil {
			t.Fatal(err)
		}
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(name, policy.Deny, rules...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return local
}

// outsider holds its own PSI secret and a source's address: nothing the
// mediator holds.
type outsider struct {
	t     *testing.T
	base  string
	suite psi.Suite
	me    *psi.Party
}

func newOutsider(t *testing.T, base string) *outsider {
	t.Helper()
	me, err := psi.NewParty(psi.X25519Suite(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &outsider{t: t, base: base, suite: psi.X25519Suite(), me: me}
}

// elems parses a psi-elems answer; nil for anything but a 200.
func (o *outsider) elems(resp *http.Response, err error) []psi.Element {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	n, err := xmltree.Parse(resp.Body)
	if err != nil {
		o.t.Fatal(err)
	}
	es, err := psi.UnmarshalElems(n, o.suite)
	if err != nil {
		o.t.Fatal(err)
	}
	return es
}

// decode names each element of field's blinded column from guesses: the
// column raised to the outsider's secret against H(guess) raised to its
// secret and then, through POST /psi/exponentiate, to the source's. An
// element no guess matches reads "". It is nil when the source refuses
// the column.
func (o *outsider) decode(field string, guesses []string) []string {
	o.t.Helper()
	col := o.elems(http.Get(o.base + "/psi/blinded?field=" + field + "&suite=" + o.suite.Name()))
	if col == nil {
		return nil
	}
	double, err := o.me.ExponentiateBatch(col)
	if err != nil {
		o.t.Fatal(err)
	}
	env := psi.MarshalElems(o.suite, o.me.BlindBatch(guesses)).String()
	dict := map[string]string{}
	for i, e := range o.elems(http.Post(o.base+"/psi/exponentiate", "application/xml", strings.NewReader(env))) {
		dict[string(o.suite.AppendElement(nil, e))] = guesses[i]
	}
	out := make([]string, len(double))
	for i, e := range double {
		out[i] = dict[string(o.suite.AppendElement(nil, e))]
	}
	return out
}

// A source whose policy denies a field decodes nothing of it: P5 (is a
// guess in the column?) and P6 (the rows of two columns of one table,
// joined by position) both fail. Two granted columns do not join
// either: each goes out sorted. Membership in a granted column stays
// open: items hash with no key, so anyone forms H(guess) (ROADMAP N (4),
// a linkage key the sources share, closes it).
func TestPSIRoutesDecodeNothingTheSourceDenies(t *testing.T) {
	srv := httptest.NewServer(source.NewHandler(clinicSource(t, "clinic")))
	defer srv.Close()
	rows := clinicRows()
	var names, zips, diagnoses []string
	for _, r := range rows {
		names, zips, diagnoses = append(names, r.name), append(zips, r.zip), append(diagnoses, r.diagnosis)
	}
	o := newOutsider(t, srv.URL)
	member := func(field string, guesses []string) func() bool {
		return func() bool {
			for _, v := range o.decode(field, guesses) {
				if v != "" {
					return true
				}
			}
			return false
		}
	}
	// join decodes when the two columns, paired by position, are the
	// table's rows.
	join := func(other string, guesses []string, of func(clinicRow) string) func() bool {
		return func() bool {
			a, b := o.decode("name", names), o.decode(other, guesses)
			if len(a) != len(rows) || len(b) != len(rows) {
				return false
			}
			truth := map[string]string{}
			for _, r := range rows {
				truth[r.name] = of(r)
			}
			for i := range a {
				if a[i] == "" || truth[a[i]] != b[i] {
					return false
				}
			}
			return true
		}
	}
	for _, c := range []struct {
		attack  string
		decodes func() bool
		open    bool
	}{
		{"P5: membership in a denied column", member("diagnosis", diagnoses), false},
		{"P6: a name joined to a denied column", join("diagnosis", diagnoses, func(r clinicRow) string { return r.diagnosis }), false},
		{"P6: two granted columns joined by position", join("zip", zips, func(r clinicRow) string { return r.zip }), false},
		{"P5: membership in a granted column (open until ROADMAP N (4))", member("name", names), true},
	} {
		if got := c.decodes(); got != c.open {
			t.Errorf("%s: decodes %v, want %v", c.attack, got, c.open)
		}
	}
}

// A field the policy denies is refused as the source's answer: a
// guarded Overlap asks each source once, retries nothing, leaves the
// breaker closed, and reads the refusal as policy-denied.
func TestOverlapRefusalIsAnAnswer(t *testing.T) {
	var calls [2]atomic.Int32
	var eps []source.Endpoint
	for i, l := range []*source.Local{
		tableSource(t, "open", policy.Rule{Item: "//patients//*", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1}),
		clinicSource(t, "clinic"),
	} {
		h := source.NewHandler(l)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/psi/blinded" {
				calls[i].Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		defer srv.Close()
		eps = append(eps, source.NewClient(srv.URL, l.Name()))
	}
	var transitions atomic.Int32
	med, err := mediator.New(mediator.Config{
		Endpoints:     eps,
		LinkageSalt:   salt,
		SourceTimeout: 10 * time.Second,
		Resilience: &resilience.EndpointConfig{
			Policy: resilience.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 1, OpenFor: time.Minute,
				OnStateChange: func(string, string) { transitions.Add(1) }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	for round := 1; round <= 2; round++ {
		_, err := med.Overlap(context.Background(), "open", "clinic", "diagnosis")
		if err == nil || refusal.Classify(err) != refusal.Policy {
			t.Fatalf("round %d: %v, want a policy-denied refusal", round, err)
		}
		if a, b := calls[0].Load(), calls[1].Load(); a != int32(round) || b != int32(round) {
			t.Errorf("round %d: %d and %d GET /psi/blinded, want %d each", round, a, b, round)
		}
	}
	if n := transitions.Load(); n != 0 {
		t.Errorf("%d breaker transitions, want none", n)
	}
}
