package mediator

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"privateiye/internal/piql"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// A source is another administrative domain. A multiplicity list the
// mediator cannot trust refuses that source's answer, as an unreadable
// loss estimate does; it is never read as ones, and never reaches the
// duplicate count of an answered query.
func TestForgedMultiplicitiesDenyTheSource(t *testing.T) {
	const plain = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"
	const aggregate = "FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n PURPOSE research MAXLOSS 1"
	fields := func(n *xmltree.Node) []string {
		c, _ := n.Attr("counts")
		return strings.Fields(c)
	}
	first := func(v string) func(*xmltree.Node) {
		return func(n *xmltree.Node) {
			f := fields(n)
			f[0] = v
			n.SetAttr("counts", strings.Join(f, " "))
		}
	}

	// The honest answers: B alone is what must remain once A is refused.
	honest := twoHospitals(t)
	a, err := honest[0].Query(context.Background(), plain, "alice")
	if err != nil || len(fields(a)) < 2 || len(fields(a)) != len(a.Child("result").Children) {
		t.Fatalf("hospitalA should ship ≥ 2 distinct rows, one multiplicity each: %v, %v", a, err)
	}
	agg, err := honest[0].Query(context.Background(), aggregate, "alice")
	if _, counted := agg.Attr("counts"); err != nil || counted {
		t.Fatalf("an aggregate answer ships as it is, without multiplicities: %v, %v", agg, err)
	}
	onlyB := func(query string) *Integrated {
		m, err := New(Config{Endpoints: twoHospitals(t)[1:]})
		if err != nil {
			t.Fatal(err)
		}
		in, err := m.Query(query, "alice")
		if err != nil {
			t.Fatal(err)
		}
		return in
	}

	for _, tc := range []struct {
		name, query string
		forge       func(*xmltree.Node)
	}{
		{"not a number", plain, first("x")},
		{"a fraction", plain, first("1.5")},
		{"zero", plain, first("0")},
		{"negative", plain, first("-3")},
		{"one entry short", plain, func(n *xmltree.Node) { n.SetAttr("counts", strings.Join(fields(n)[1:], " ")) }},
		{"one entry long", plain, func(n *xmltree.Node) { n.SetAttr("counts", n.Attrs["counts"]+" 1") }},
		{"an empty entry", plain, func(n *xmltree.Node) { n.SetAttr("counts", strings.Replace(n.Attrs["counts"], " ", "  ", 1)) }},
		{"a total over the cap", plain, first(strconv.Itoa(piql.MaxRows))},
		{"a total that overflows", plain, func(n *xmltree.Node) {
			f := fields(n)
			for i := range f {
				f[i] = "9223372036854775807"
			}
			n.SetAttr("counts", strings.Join(f, " "))
		}},
		{"an aggregate answer carrying them", aggregate, func(n *xmltree.Node) {
			n.SetAttr("counts", strings.TrimSpace(strings.Repeat("1 ", len(n.Child("result").Children))))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := twoHospitals(t)
			eps[0] = forgingEndpoint{eps[0], tc.forge}
			m, err := New(Config{Endpoints: eps})
			if err != nil {
				t.Fatal(err)
			}
			in, err := m.Query(tc.query, "alice")
			if err != nil {
				t.Fatal(err)
			}
			if reason := in.Denied["hospitalA"]; !strings.Contains(reason, "multiplicit") {
				t.Errorf("hospitalA should be denied for its multiplicities; denied = %v", in.Denied)
			}
			want := onlyB(tc.query)
			if !reflect.DeepEqual(in.Answered, []string{"hospitalB"}) || in.Duplicates != want.Duplicates ||
				!reflect.DeepEqual(in.Result.Rows, want.Result.Rows) {
				t.Errorf("answered %v, %d duplicates, rows %v; want hospitalB's alone: %d, %v",
					in.Answered, in.Duplicates, in.Result.Rows, want.Duplicates, want.Result.Rows)
			}
		})
	}
}

// Joined on a separator these two rows were one, and the second was lost
// as a duplicate; so were the two groups they key.
func TestCollidingRowsAreNotDuplicates(t *testing.T) {
	res := &piql.Result{Columns: []string{"x", "y", "n"}, Rows: [][]string{{"a\x00", "b", "1"}, {"a", "\x00b", "1"}, {"a\x00", "b", "1"}}}
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	out, removed, err := m.dedupe(res)
	if err != nil || len(out.Rows) != 2 || removed != 1 {
		t.Errorf("dedupe kept %q, removed %d, %v; want both distinct rows and 1 removed", out.Rows, removed, err)
	}
	count := piql.ReturnItem{Agg: piql.AggCount, As: "n"}
	folded, err := foldGroups(res, []int{0, 1}, []aggSpec{{2, count}})
	if err != nil || len(folded.Rows) != 2 {
		t.Fatalf("folded to %q, %v; want two groups", folded.Rows, err)
	}
	for _, row := range folded.Rows {
		if want := map[string]string{"a\x00": "2", "a": "1"}[row[0]]; row[2] != want {
			t.Errorf("group %q counts %s, want %s", row[:2], row[2], want)
		}
	}
}

// The fuzzy pass drops a row that stood for several: all of them count as
// removed, not one.
func TestFuzzyDedupeRemovesWhatADroppedRowStoodFor(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t), LinkageSalt: salt, DedupColumn: "name", DedupThreshold: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	res := &piql.Result{
		Columns: []string{"name"},
		Rows:    [][]string{{"Jonathan Smith"}, {"Jonathon Smith"}, {"Maria Garcia"}},
		Mult:    []int{4, 5, 2},
	}
	out, removed, err := m.dedupe(res)
	if err != nil || len(out.Rows) != 2 || removed != 9 || out.Mult != nil {
		t.Errorf("kept %q (mult %v), removed %d, %v; want 2 of the 11 rows kept", out.Rows, out.Mult, removed, err)
	}
}

// envelope is a source's answer as the mediator receives it: tagged,
// written and parsed.
func envelope(t *testing.T, src string, res *piql.Result) *xmltree.Node {
	t.Helper()
	n := xmltree.NewElem("answer").SetAttr("source", src).SetAttr("estloss", "0.25")
	if len(res.Mult) > 0 {
		n.SetAttr("counts", res.MultText())
	}
	back, err := xmltree.ParseString(n.Append(res.ToNode()).String())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// Integrating collapsed answers is integrating the answers: over seeded
// random results (one to four columns, differing per source, from no
// duplication to nothing but, awkward cells), with and without the fuzzy
// pass, the kept rows and the duplicate count are those of the same
// answers shipped row by row.
func TestIntegratingCollapsedAnswersIsIntegratingTheAnswers(t *testing.T) {
	cells := []string{"", "40-49", "a b", "x; y", "<&>", `"q'`, "a", "ab", "Jonathan Smith", "Jonathon Smith", "1", "01"}
	rng := rand.New(rand.NewSource(24))
	exact, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, err := New(Config{Endpoints: twoHospitals(t), LinkageSalt: salt, DedupColumn: "c0", DedupThreshold: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		pool := make([][]string, 1+rng.Intn(40))
		for i := range pool {
			pool[i] = make([]string, 4)
			for j := range pool[i] {
				pool[i][j] = cells[rng.Intn(len(cells))]
			}
		}
		var shipped, collapsed []*answer
		for _, src := range []string{"s0", "s1", "s2"} {
			cols := 1 + rng.Intn(4)
			res := &piql.Result{Rows: piql.NewRows(rng.Intn(50), cols)}
			for j := 0; j < cols; j++ {
				res.Columns = append(res.Columns, "c"+strconv.Itoa(j))
			}
			for _, row := range res.Rows {
				copy(row, pool[rng.Intn(len(pool))])
			}
			for _, side := range []struct {
				res  *piql.Result
				into *[]*answer
			}{{res, &shipped}, {res.Collapse(), &collapsed}} {
				a, err := parseAnswer(envelope(t, src, side.res), false)
				if err != nil {
					t.Fatal(err)
				}
				*side.into = append(*side.into, a)
			}
		}
		for name, m := range map[string]*Mediator{"exact": exact, "fuzzy": fuzzy} {
			want, wantRemoved, err := m.dedupe(mergeAnswers(shipped))
			if err != nil {
				t.Fatal(err)
			}
			got, removed, err := m.dedupe(mergeAnswers(collapsed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || removed != wantRemoved {
				t.Fatalf("round %d, %s: collapsed answers integrate to %v (%d removed), the same answers row by row to %v (%d removed)",
					round, name, got.Rows, removed, want.Rows, wantRemoved)
			}
		}
	}
}

// expandingEndpoint answers what its source answers, but ships every row:
// the envelope is rebuilt from Answer.Result, the rows as released, with
// no multiplicities. Like wireEndpoint, which the collapsing side uses, it
// sends its answer through the codec.
type expandingEndpoint struct{ *source.Local }

func (e expandingEndpoint) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	q, err := piql.Parse(text)
	if err != nil {
		return nil, err
	}
	ans, err := e.Src.Execute(q, requester)
	if err != nil {
		return nil, err
	}
	n := xmltree.NewElem("answer")
	for k, v := range ans.Node.Attrs {
		if k != "counts" {
			n.SetAttr(k, v)
		}
	}
	for _, c := range ans.Node.Children {
		if c.Name != "result" {
			n.Append(xmltree.NewText(c.Name, c.Text).SetAttr("reason", c.Attrs["reason"]))
		}
	}
	return xmltree.ParseString(n.Append(ans.Result.ToNode()).String())
}

// The same federation, once shipping distinct rows with multiplicities
// and once shipping every row, gives the same integrated answer: rows,
// duplicates, aggregated loss, who answered and who refused. Replies
// arrive in any order, so rows compare as sets unless the query's own
// ORDER BY fixes their order, and a LIMIT without one fixes only how many
// there are.
func TestFederationAnswersTheSameCollapsedOrNot(t *testing.T) {
	three := func(expand bool) []source.Endpoint {
		var eps []source.Endpoint
		for i, name := range []string{"hospitalA", "hospitalB", "hospitalC"} {
			ep := localEndpoint(t, hospitalConfig(t, name, uint64(i+1), 40+20*i, name == "hospitalC"))
			if expand {
				ep = expandingEndpoint{ep.(*source.Local)}
			} else {
				ep = &wireEndpoint{Endpoint: ep}
			}
			eps = append(eps, ep)
		}
		return eps
	}
	collapsed, err := New(Config{Endpoints: three(false)})
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := New(Config{Endpoints: three(true)})
	if err != nil {
		t.Fatal(err)
	}
	// set is a result's rows as a set, each row keyed by column name: the
	// union of columns, too, comes in the order the replies did.
	set := func(res *piql.Result) []string {
		var out []string
		for _, row := range res.Rows {
			var cells []string
			for i, c := range res.Columns {
				cells = append(cells, c+"="+row[i])
			}
			sort.Strings(cells)
			out = append(out, strings.Join(cells, "|"))
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range []struct {
		query            string
		ordered, limited bool
	}{
		{query: "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"},
		{query: "FOR //patients/row RETURN //age, //sex PURPOSE research MAXLOSS 0.9"},
		{query: "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"},
		{query: "FOR //patients/row RETURN //name PURPOSE research MAXLOSS 1"},
		{query: "FOR //patients/row RETURN //sex ORDER BY sex DESC LIMIT 1 PURPOSE research MAXLOSS 1", ordered: true},
		// Compared like a LIMIT without ORDER BY: every source suppresses
		// names, so the sort column never arrives, and row order follows
		// reply arrival.
		{query: "FOR //patients/row WHERE //age > 30 RETURN //sex, //name ORDER BY name LIMIT 7 PURPOSE research MAXLOSS 1", limited: true},
		{query: "FOR //patients/row RETURN //sex, //name LIMIT 5 PURPOSE research MAXLOSS 1", limited: true},
		{query: "FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n PURPOSE research MAXLOSS 1", ordered: true},
	} {
		got, err := collapsed.Query(tc.query, "alice")
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		want, err := expanded.Query(tc.query, "alice")
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(want.Result.Rows) == 0 || len(want.Answered) < 2 {
			t.Fatalf("%s: %d rows from %v: nothing to compare", tc.query, len(want.Result.Rows), want.Answered)
		}
		same := len(got.Result.Rows) == len(want.Result.Rows)
		switch {
		case tc.ordered:
			same = reflect.DeepEqual(got.Result, want.Result)
		case !tc.limited:
			same = reflect.DeepEqual(set(got.Result), set(want.Result))
		}
		if !same || got.Duplicates != want.Duplicates || got.AggregatedLoss != want.AggregatedLoss ||
			!reflect.DeepEqual(got.Answered, want.Answered) || !reflect.DeepEqual(got.Denied, want.Denied) {
			t.Errorf("%s:\ncollapsed: %d rows %v, %d duplicates, loss %v, answered %v, denied %v\nexpanded:  %d rows %v, %d duplicates, loss %v, answered %v, denied %v",
				tc.query, len(got.Result.Rows), got.Result.Rows, got.Duplicates, got.AggregatedLoss, got.Answered, got.Denied,
				len(want.Result.Rows), want.Result.Rows, want.Duplicates, want.AggregatedLoss, want.Answered, want.Denied)
		}
	}
}
