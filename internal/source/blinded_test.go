package source_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/relational"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// A source's blinded column is memoised per (suite, field) and stamped
// with the column's data version (DESIGN.md §14): these tests hold the
// memo to serving exactly what the miss path would build, and never a
// column older than the data.

var ctx = context.Background()

// warmBlindedAllocBound caps a warm Local.PSIBlinded over a relational
// column: measured 1 (the catalog's name list the data version is read
// through), against 37 when every call reads, blinds and marshals the
// column again.
const warmBlindedAllocBound = 1

// nameTable is a one-column table of names.
func nameTable(t testing.TB, table string, names ...string) *relational.Table {
	t.Helper()
	schema, err := relational.NewSchema(relational.Column{Name: "name", Type: relational.TString})
	if err != nil {
		t.Fatal(err)
	}
	tab := relational.NewTable(table, schema)
	for _, n := range names {
		if err := tab.Insert(relational.Row{relational.Str(n)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func openPolicy(t testing.TB, name string) *policy.Policy {
	t.Helper()
	pol, err := policy.NewPolicy(name, policy.Allow)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// nameSource is an open-policy relational source over one table of
// names, returned with that table and its catalog.
func nameSource(t testing.TB, name string, names ...string) (*source.Local, *relational.Table, *relational.Catalog) {
	t.Helper()
	cat := relational.NewCatalog()
	tab := nameTable(t, "people", names...)
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: openPolicy(t, name)})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return local, tab, cat
}

// count is a blinded column's declared length.
func count(t testing.TB, n *xmltree.Node) int {
	t.Helper()
	c, err := strconv.Atoi(n.Attrs["n"])
	if err != nil {
		t.Fatalf("envelope n=%q: %v", n.Attrs["n"], err)
	}
	return c
}

func blinded(t testing.TB, ep source.Endpoint) *xmltree.Node {
	t.Helper()
	n, err := ep.PSIBlinded(ctx, "name", "")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// getBlinded fetches GET /psi/blinded?field=name as raw bytes.
func getBlinded(t *testing.T, url string) (body []byte, contentLength string) {
	t.Helper()
	resp, err := http.Get(url + "/psi/blinded?field=name")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /psi/blinded: %d %v %s", resp.StatusCode, err, body)
	}
	return body, resp.Header.Get("Content-Length")
}

// overlapOver is a mediator over the two sources behind their HTTP
// handlers, reached as piye-mediator reaches them.
func overlapOver(t *testing.T, a, b *source.Local) func() int {
	t.Helper()
	var eps []source.Endpoint
	for _, l := range []*source.Local{a, b} {
		srv := httptest.NewServer(source.NewHandler(l))
		t.Cleanup(srv.Close)
		eps = append(eps, source.NewClient(srv.URL, l.Name()))
	}
	m, err := mediator.New(mediator.Config{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return func() int {
		n, err := m.Overlap(ctx, a.Name(), b.Name(), "name")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// A warm GET /psi/blinded writes the bytes the miss wrote, which are
// WriteNode's encoding of the node the in-process call returns, and the
// overlap counted over warm columns is the one counted over cold ones.
func TestBlindedColumnWarmBodyIsTheMissBody(t *testing.T) {
	a, _, _ := nameSource(t, "A", "alice", "bob", "carol", "dave")
	b, _, _ := nameSource(t, "B", "carol", "erin", "alice", "alice")
	srv := httptest.NewServer(source.NewHandler(a))
	defer srv.Close()

	miss, missLen := getBlinded(t, srv.URL)
	hit, hitLen := getBlinded(t, srv.URL)
	rec := httptest.NewRecorder()
	source.WriteNode(rec, blinded(t, a))
	if string(hit) != string(miss) || rec.Body.String() != string(miss) {
		t.Fatalf("warm body differs from the miss body or from WriteNode of its node:\nmiss %q\nhit  %q\nnode %q", miss, hit, rec.Body.String())
	}
	if want := strconv.Itoa(len(miss)); missLen != want || hitLen != want {
		t.Errorf("Content-Length %s / %s, want %s", missLen, hitLen, want)
	}
	parsed, err := xmltree.ParseString(string(hit))
	if err != nil || count(t, parsed) != 4 || parsed.Text != blinded(t, a).Text {
		t.Errorf("warm body does not parse back to the column: %v", err)
	}

	overlap := overlapOver(t, a, b)
	for i := 0; i < 3; i++ {
		if n := overlap(); n != 2 {
			t.Fatalf("overlap %d = %d, want 2", i, n)
		}
	}
}

// The memo follows the data: an Insert into the table, or a table that
// holds the field joining the catalog, is in the next column and the next
// overlap. A table without the field leaves the column, and the node
// served, as they were.
func TestBlindedColumnFollowsTheData(t *testing.T) {
	a, people, cat := nameSource(t, "A", "alice", "bob", "carol")
	b, _, _ := nameSource(t, "B", "carol", "dave", "erin", "frank")
	overlap := overlapOver(t, a, b)
	if n := count(t, blinded(t, a)); n != 3 {
		t.Fatalf("column of %d, want 3", n)
	}
	if n := overlap(); n != 1 {
		t.Fatalf("overlap = %d, want 1", n)
	}

	if err := people.Insert(relational.Row{relational.Str("dave")}); err != nil {
		t.Fatal(err)
	}
	if n := count(t, blinded(t, a)); n != 4 {
		t.Errorf("after an Insert: column of %d, want 4", n)
	}
	if n := overlap(); n != 2 {
		t.Errorf("after an Insert: overlap = %d, want 2", n)
	}

	if err := cat.Add(nameTable(t, "visitors", "erin")); err != nil {
		t.Fatal(err)
	}
	if n := count(t, blinded(t, a)); n != 5 {
		t.Errorf("after Catalog.Add: column of %d, want 5", n)
	}
	if n := overlap(); n != 3 {
		t.Errorf("after Catalog.Add: overlap = %d, want 3", n)
	}

	before := blinded(t, a)
	schema, err := relational.NewSchema(relational.Column{Name: "ward", Type: relational.TString})
	if err != nil {
		t.Fatal(err)
	}
	wards := relational.NewTable("wards", schema)
	if err := wards.Insert(relational.Row{relational.Str("east")}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(wards); err != nil {
		t.Fatal(err)
	}
	if after := blinded(t, a); after != before {
		t.Error("a table without the field rebuilt the column")
	}
}

// Documents are the caller's nodes and carry no version, so a source that
// holds any builds its column on every call, tables and all: an edit is in
// the next one.
func TestBlindedColumnOfDocumentsIsNeverStale(t *testing.T) {
	root := xmltree.NewElem("reg")
	for _, n := range []string{"alice", "bob"} {
		root.Append(xmltree.NewElem("patient").Append(xmltree.NewText("name", n)))
	}
	cat := relational.NewCatalog()
	if err := cat.Add(nameTable(t, "people", "carol")); err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: "D", Catalog: cat, Docs: []*xmltree.Node{root}, Policy: openPolicy(t, "D")})
	if err != nil {
		t.Fatal(err)
	}
	d, err := source.NewLocal(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := nameSource(t, "B", "dave", "erin")
	overlap := overlapOver(t, d, b)

	first := blinded(t, d)
	if count(t, first) != 3 || overlap() != 0 {
		t.Fatalf("column of %d, want 3, and no overlap", count(t, first))
	}
	root.Children[0].Children[0].Text = "dave"
	if edited := blinded(t, d); edited.Text == first.Text {
		t.Error("an edited name did not change the column")
	}
	if n := overlap(); n != 1 {
		t.Errorf("after an edit: overlap = %d, want 1", n)
	}
	root.Append(xmltree.NewElem("patient").Append(xmltree.NewText("name", "erin")))
	if n := count(t, blinded(t, d)); n != 4 {
		t.Errorf("after an appended document node: column of %d, want 4", n)
	}
	if n := overlap(); n != 2 {
		t.Errorf("after an appended document node: overlap = %d, want 2", n)
	}
}

func TestWarmBlindedColumnAllocations(t *testing.T) {
	a, _, _ := nameSource(t, "A", names(500)...)
	blinded(t, a)
	if got := testing.AllocsPerRun(100, func() { blinded(t, a) }); got > warmBlindedAllocBound {
		t.Errorf("warm PSIBlinded: %.1f allocs, want <= %d", got, warmBlindedAllocBound)
	}
}

// Readers in process and over HTTP, coalesced or not, race inserts of
// one row each. A column is read after its version, so no reader ever
// sees its column shrink, and once the inserts are done every reader
// sees all of them.
func TestBlindedColumnUnderConcurrentInserts(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			a, people, _ := nameSource(t, "A", "n0")
			a.Coalesce = coalesce
			srv := httptest.NewServer(source.NewHandler(a))
			defer srv.Close()
			readers := []source.Endpoint{a, a, source.NewClient(srv.URL, "A"), source.NewClient(srv.URL, "A")}

			const inserts = 60
			done := make(chan struct{})
			errs := make(chan error, len(readers)+1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 1; i <= inserts; i++ {
					if err := people.Insert(relational.Row{relational.Str(fmt.Sprintf("n%d", i))}); err != nil {
						errs <- err
						return
					}
				}
			}()
			for _, ep := range readers {
				wg.Add(1)
				go func(ep source.Endpoint) {
					defer wg.Done()
					last := 0
					for {
						select {
						case <-done:
							return
						default:
						}
						n, err := ep.PSIBlinded(ctx, "name", "")
						if err != nil {
							errs <- err
							return
						}
						c, err := strconv.Atoi(n.Attrs["n"])
						if err != nil || c < last || c > inserts+1 {
							errs <- fmt.Errorf("%T read a column of %s after one of %d", ep, n.Attrs["n"], last)
							return
						}
						last = c
					}
				}(ep)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for _, ep := range readers {
				if n := count(t, blinded(t, ep)); n != inserts+1 {
					t.Errorf("%T: column of %d after the inserts, want %d", ep, n, inserts+1)
				}
			}
		})
	}
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("patient-%04d", i)
	}
	return out
}

// BenchmarkPSIBlindedWarm is a warm Local.PSIBlinded of a 500-name
// column in the default suite: the memo's answer. allocs/op growing
// with the column (dozens) means the column is read and marshalled on
// every call again.
func BenchmarkPSIBlindedWarm(b *testing.B) {
	a, _, _ := nameSource(b, "A", names(500)...)
	blinded(b, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blinded(b, a)
	}
}
