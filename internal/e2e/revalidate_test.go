package e2e

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
)

// A warm Mediator.Overlap is two conditional GETs: each source answers
// 304 to the column the mediator's client already holds, and the
// mediator answers the count it kept for that pair of columns (DESIGN.md
// §14, Revalidation). These tests hold the kept count to the true one
// across an Insert and a source restarted with a new secret, and show
// that a warm round reaches no party.

// nameNode is a source of one name table behind a swappable handler,
// as a daemon restarted behind the same address is.
type nameNode struct {
	name    string
	people  *relational.Table
	srv     *httptest.Server
	handler atomic.Pointer[http.Handler]
}

func newNameNode(t *testing.T, name string, names []string) *nameNode {
	t.Helper()
	schema, err := relational.NewSchema(relational.Column{Name: "name", Type: relational.TString})
	if err != nil {
		t.Fatal(err)
	}
	n := &nameNode{name: name, people: relational.NewTable("people", schema)}
	for _, s := range names {
		if err := n.people.Insert(relational.Row{relational.Str(s)}); err != nil {
			t.Fatal(err)
		}
	}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*n.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	n.start(t)
	return n
}

// start serves a new Local over the node's rows: a new PSI secret and a
// new registry, as a restarted daemon has.
func (n *nameNode) start(t *testing.T) {
	t.Helper()
	cat := relational.NewCatalog()
	if err := cat.Add(n.people); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(n.name, policy.Allow)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: n.name, Catalog: cat, Policy: pol, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := source.NewHandler(local)
	n.handler.Store(&h)
}

// psiSeries are the series a round can move at a source: the party's
// four and the 304s.
var psiSeries = []string{
	"piye_psi_blind_items_total",
	"piye_psi_blind_cache_hits_total",
	"piye_psi_exponentiate_items_total",
	"piye_psi_exponentiate_cache_hits_total",
	"piye_psi_blinded_not_modified_total",
}

// psiCounts scrapes the node's psiSeries in the x25519 suite.
func (n *nameNode) psiCounts(t *testing.T) map[string]float64 {
	t.Helper()
	all := scrape(t, n.srv.URL)
	out := map[string]float64{}
	for _, s := range psiSeries {
		out[s] = all[fmt.Sprintf(`%s{source=%q,suite="x25519"}`, s, n.name)]
	}
	return out
}

// nameFleet is two name nodes, A with names 0–299 and B with 200–499,
// and a mediator over them with retries and a breaker.
func nameFleet(t *testing.T) (a, b *nameNode, med *mediator.Mediator) {
	t.Helper()
	all := make([]string, 500)
	for i := range all {
		all[i] = fmt.Sprintf("patient-%03d", i)
	}
	a, b = newNameNode(t, "A", all[:300]), newNameNode(t, "B", all[200:])
	med, err := mediator.New(mediator.Config{
		Endpoints:     []source.Endpoint{source.NewClient(a.srv.URL, "A"), source.NewClient(b.srv.URL, "B")},
		LinkageSalt:   salt,
		SourceTimeout: 10 * time.Second,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return a, b, med
}

func TestWarmOverlapIsTwoRevalidations(t *testing.T) {
	a, b, med := nameFleet(t)
	overlap := func(when string, want int) {
		t.Helper()
		if n, err := med.Overlap(context.Background(), "A", "B", "name"); err != nil || n != want {
			t.Fatalf("%s: overlap %d, %v; want %d", when, n, err, want)
		}
	}
	// warm checks that one more round is answered from the kept count:
	// one 304 at each source, and nothing else moves.
	warm := func(when string, want int) {
		t.Helper()
		before := []map[string]float64{a.psiCounts(t), b.psiCounts(t)}
		overlap(when, want)
		for i, n := range []*nameNode{a, b} {
			after := n.psiCounts(t)
			for _, s := range psiSeries {
				d := after[s] - before[i][s]
				if s == "piye_psi_blinded_not_modified_total" && d != 1 || s != "piye_psi_blinded_not_modified_total" && d != 0 {
					t.Errorf("%s: a warm round moved %s at %s by %v", when, s, n.name, d)
				}
			}
		}
	}

	overlap("cold", 100)
	warm("warm", 100)
	warm("warm again", 100)

	if err := a.people.Insert(relational.Row{relational.Str("patient-450")}); err != nil {
		t.Fatal(err)
	}
	before := []map[string]float64{a.psiCounts(t), b.psiCounts(t)}
	overlap("after an Insert into A", 101)
	// A changed round sends both columns to be exponentiated, and each
	// party's per-element memo answers every element it has seen: all
	// of B's unchanged 300 names at A, all but the new name of A's 301
	// at B.
	for i, want := range []struct {
		n           *nameNode
		items, hits float64
	}{{a, 300, 300}, {b, 301, 300}} {
		after := want.n.psiCounts(t)
		items := after["piye_psi_exponentiate_items_total"] - before[i]["piye_psi_exponentiate_items_total"]
		hits := after["piye_psi_exponentiate_cache_hits_total"] - before[i]["piye_psi_exponentiate_cache_hits_total"]
		if items != want.items || hits != want.hits {
			t.Errorf("after an Insert into A: %s exponentiated %v items with %v memo hits, want %v and %v",
				want.n.name, items, hits, want.items, want.hits)
		}
	}
	warm("warm after the Insert", 101)

	// A restarted with the same rows draws a new secret: its column is
	// new bytes, so the round runs the protocol again, at both sources.
	a.start(t)
	overlap("after A restarted", 101)
	if got := b.psiCounts(t)["piye_psi_exponentiate_items_total"]; got == 0 {
		t.Error("B exponentiated nothing after A restarted")
	}
	warm("warm after the restart", 101)

	// B's changed column now meets A's: a column A blinded under its old
	// secret, kept anywhere, would compare unequal to everything.
	if err := b.people.Insert(relational.Row{relational.Str("patient-050")}); err != nil {
		t.Fatal(err)
	}
	overlap("after an Insert into B", 102)
	warm("warm after the Insert into B", 102)
}

// Concurrent callers over two keys, racing an Insert, each read a true
// count: the one before the Insert or the one after, and once it has
// landed, the one after.
func TestConcurrentOverlapCallers(t *testing.T) {
	a, _, med := nameFleet(t)
	const callers, rounds = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, y := "A", "B"
			if i%2 == 1 {
				x, y = y, x
			}
			for r := 0; r < rounds; r++ {
				n, err := med.Overlap(context.Background(), x, y, "name")
				if err == nil && n != 100 && n != 101 {
					err = fmt.Errorf("overlap(%s, %s) = %d, want 100 or 101", x, y, n)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	if err := a.people.Insert(relational.Row{relational.Str("patient-450")}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, pair := range [][2]string{{"A", "B"}, {"B", "A"}, {"A", "B"}} {
		if n, err := med.Overlap(context.Background(), pair[0], pair[1], "name"); err != nil || n != 101 {
			t.Errorf("after the Insert: overlap(%s, %s) = %d, %v; want 101", pair[0], pair[1], n, err)
		}
	}
}
