package source

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privateiye/internal/audit"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
)

// A memoised aggregate's answer carries a strong entity tag, the digest
// of its bytes, and POST /query answers a caller that sends it back 304
// with no body (DESIGN.md §14, Revalidation), once the query's whole
// path has granted it. These tests hold the 304 to every check the 200
// runs, to the bytes it stands for, and the Client to the answer it
// held.

// warmQueryAllocBound caps a warm Client.Query of benchFig1a against a
// piye-source handler behind an httptest server, both ends in this
// process: measured 33 (a conditional POST and its 304, client and
// server side), against 35 when the client built its target and copied
// the query text on every call, 85 when the request went through
// net/http's Transport and 100 through http.Client.Do with its default
// headers; a call that ships the answer and parses it again reads 59
// (115 through the Transport).
const warmQueryAllocBound = 43

// revalidatedQuery is a GROUP BY over every patient: an aggregate the
// plan memoises, and whose query set a second ask by one requester
// overlaps wholly.
const revalidatedQuery = "FOR //patients/row GROUP BY //sex RETURN AVG(//age) AS a PURPOSE research"

// benchLocal is benchSource, served as piye-source serves it: its
// Figure 1a answer is memoised, and nothing audits its requesters.
func benchLocal(t testing.TB) *Local {
	t.Helper()
	l, err := NewLocal(benchSource(t, 64), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// classedMemoSource is a source over patientsCatalog behind classedStore,
// preserving with Identity so that its aggregates are memoised, with a
// sequence auditor and a registry.
func classedMemoSource(t *testing.T) *Local {
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
		Registry: preserve.NewRegistry(), Audit: log, PlanCache: 64, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Local{Src: src}
}

// post sends query to h as requester, with If-None-Match when inm is
// not empty.
func post(h http.Handler, query, requester, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(query))
	req.Header.Set("X-Requester", requester)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// queryNotModified reads piye_source_query_not_modified_total.
func queryNotModified(l *Local) uint64 {
	return l.Src.cfg.Obs.Counter("piye_source_query_not_modified_total", "source", l.Name()).Value()
}

// A memoised answer's 200 carries the digest of its bytes, and sending
// it back gets a 304 with no body that carries it too. Another tag, or
// the tag unquoted, gets the 200.
func TestQueryAnswerRevalidatesWith304(t *testing.T) {
	l := benchLocal(t)
	h := NewHandler(l)
	first := post(h, benchFig1a, "r1", "")
	tag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || tag != entityTag(first.Body.String()) {
		t.Fatalf("first POST: %d, ETag %s, want 200 and %s", first.Code, tag, entityTag(first.Body.String()))
	}
	if n := queryNotModified(l); n != 0 {
		t.Errorf("%d 304s before any, want 0", n)
	}
	warm := post(h, benchFig1a, "r2", tag)
	if warm.Code != http.StatusNotModified || warm.Body.Len() != 0 || warm.Header().Get("ETag") != tag {
		t.Fatalf("conditional POST: %d, %d body bytes, ETag %s; want 304, none, %s", warm.Code, warm.Body.Len(), warm.Header().Get("ETag"), tag)
	}
	if n := queryNotModified(l); n != 1 {
		t.Errorf("%d 304s after one, want 1", n)
	}
	for _, other := range []string{`"nope"`, tag[1 : len(tag)-1]} {
		if rec := post(h, benchFig1a, "r3", other); rec.Code != http.StatusOK || rec.Body.String() != first.Body.String() {
			t.Errorf("If-None-Match %s: %d, want the 200", other, rec.Code)
		}
	}
}

// A conditional POST the 200 path refuses is refused the same way,
// whatever If-None-Match carries: the audit and the policy run before
// any tag is compared. And a 304 commits the requester's audit exactly
// as a 200 does: cy, served a 304, is refused a repeat as carol, served
// the 200, is.
func TestConditionalQueryIsRefusedAsThe200Is(t *testing.T) {
	l := classedMemoSource(t)
	h := NewHandler(l)
	tag := post(h, revalidatedQuery, "carol", "").Header().Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on a memoised answer")
	}
	if rec := post(h, revalidatedQuery, "cy", tag); rec.Code != http.StatusNotModified {
		t.Fatalf("cy's first ask: %d, want 304", rec.Code)
	}
	for _, tc := range []struct{ name, requester, rule string }{
		{"carol's repeat, after a 200", "carol", "overlap"},
		{"cy's repeat, after a 304", "cy", "overlap"},
		{"a requester of no access class", "mallory", "fully denied"},
	} {
		plain := post(h, revalidatedQuery, tc.requester, "")
		if plain.Code != http.StatusForbidden || !strings.Contains(plain.Body.String(), tc.rule) {
			t.Fatalf("%s: the 200 path answered %d %q, want 403 %s", tc.name, plain.Code, plain.Body.String(), tc.rule)
		}
		for _, inm := range []string{tag, "*"} {
			rec := post(h, revalidatedQuery, tc.requester, inm)
			if rec.Code != plain.Code || rec.Body.String() != plain.Body.String() || rec.Header().Get("ETag") != "" {
				t.Errorf("%s, If-None-Match %s: %d %q (ETag %q), want %d %q", tc.name, inm, rec.Code, rec.Body.String(), rec.Header().Get("ETag"), plain.Code, plain.Body.String())
			}
		}
	}
	if n := queryNotModified(l); n != 1 {
		t.Errorf("%d 304s, want cy's one", n)
	}
}

// recordingServer serves a source's handler behind one address, as a
// daemon restarted there is: it notes the If-None-Match of each request
// and hands it to the handler last stored.
type recordingServer struct {
	*httptest.Server
	handler atomic.Pointer[http.Handler]
	sent    atomic.Pointer[string]
}

func newRecordingServer(t testing.TB, l *Local) *recordingServer {
	t.Helper()
	s := &recordingServer{}
	s.serve(l)
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inm := r.Header.Get("If-None-Match")
		s.sent.Store(&inm)
		(*s.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(s.Close)
	return s
}

func (s *recordingServer) serve(l *Local) {
	h := NewHandler(l)
	s.handler.Store(&h)
}

// inm is the If-None-Match the last request sent.
func (s *recordingServer) inm() string { return *s.sent.Load() }

// A plain answer is never memoised, so it carries no tag, and the
// Client sends no If-None-Match for it: cold_fanout's wire is today's.
// Nor is an aggregate of a source that caches no plans.
func TestPlainAnswerCarriesNoETag(t *testing.T) {
	l := classedMemoSource(t)
	const plain = "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research"
	if rec := post(NewHandler(l), plain, "carol", ""); rec.Code != http.StatusOK || rec.Header().Get("ETag") != "" {
		t.Fatalf("plain answer: %d, ETag %q; want 200 and none", rec.Code, rec.Header().Get("ETag"))
	}
	uncached := &Local{Src: benchSource(t, 0)}
	if rec := post(NewHandler(uncached), benchFig1a, "r1", ""); rec.Code != http.StatusOK || rec.Header().Get("ETag") != "" {
		t.Fatalf("aggregate with no plan cache: %d, ETag %q; want 200 and none", rec.Code, rec.Header().Get("ETag"))
	}
	srv := newRecordingServer(t, l)
	c := NewClient(srv.URL, "s")
	first, err := c.Query(bg, plain, "carol")
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Query(bg, plain, "cy")
	if err != nil || srv.inm() != "" || second == first || second.String() != first.String() {
		t.Errorf("the second plain ask: %v, If-None-Match %q, same node %v", err, srv.inm(), second == first)
	}
}

// The tag follows the bytes: an Insert changes the answer and its tag,
// and the old tag gets the new answer.
func TestInsertChangesTheQueryETag(t *testing.T) {
	l := benchLocal(t)
	h := NewHandler(l)
	old := post(h, benchFig1a, "r1", "").Header().Get("ETag")
	tab, err := l.Src.cfg.Catalog.Table("compliance")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(tab.Rows()[0]); err != nil {
		t.Fatal(err)
	}
	rec := post(h, benchFig1a, "r2", old)
	tag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || tag == old || tag != entityTag(rec.Body.String()) {
		t.Fatalf("after an Insert, the old tag got %d with ETag %s (old %s)", rec.Code, tag, old)
	}
	if rec := post(h, benchFig1a, "r3", tag); rec.Code != http.StatusNotModified {
		t.Errorf("the new tag got %d, want 304", rec.Code)
	}
}

// The tag is the bytes' digest, and an aggregate's bytes are a function
// of the plan and the rows: a source restarted over the same rows tags
// its answer as before, and a Client that held it gets a 304.
func TestRestartedSourceKeepsTheQueryETag(t *testing.T) {
	first := benchLocal(t)
	srv := newRecordingServer(t, first)
	c := NewClient(srv.URL, "bench")
	held, err := c.Query(bg, benchFig1a, "r1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := first.Src.cfg
	cfg.Obs, cfg.Trace = obs.NewRegistry(), nil
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restarted := &Local{Src: src}
	srv.serve(restarted)
	got, err := c.Query(bg, benchFig1a, "r2")
	if err != nil || got != held || srv.inm() == "" {
		t.Fatalf("after a restart: %v, If-None-Match %q, the held node %v", err, srv.inm(), got == held)
	}
	if n := queryNotModified(restarted); n != 1 {
		t.Errorf("the restarted source answered %d 304s, want 1", n)
	}
}

// A 304 to a query the Client sent no tag for is a failure, not an
// empty answer: an error the resilience layer retries and counts
// against the node.
func TestClientRefusesAnUnsolicitedQuery304(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"x"`)
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()
	n, err := NewClient(srv.URL, "liar").Query(bg, revalidatedQuery, "carol")
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotModified || !he.Retryable() {
		t.Fatalf("an unsolicited 304 returned %v, %v; want a retryable HTTPError", n, err)
	}
}

// Callers sharing one Client over two query texts take its one slot from
// each other; each still reads its own answer, byte for byte.
func TestConcurrentQueryCallers(t *testing.T) {
	local := benchLocal(t)
	srv := httptest.NewServer(NewHandler(local))
	defer srv.Close()
	c := NewClient(srv.URL, "bench")
	fig1b := "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	want := map[string]string{}
	for _, q := range []string{benchFig1a, fig1b} {
		n, err := local.Query(bg, q, "oracle")
		if err != nil {
			t.Fatal(err)
		}
		want[q] = n.String()
	}
	const callers, rounds = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := benchFig1a
				if (i+r)%3 == 0 {
					q = fig1b
				}
				n, err := c.Query(bg, q, fmt.Sprintf("r%d-%d", i, r))
				if err == nil && n.String() != want[q] {
					err = errors.New("caller read another query's answer")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// warmQueryOverHTTP is Client.Query of benchFig1a against a handler
// behind an httptest server, warmed by one call; it returns the call.
func warmQueryOverHTTP(tb testing.TB) func() {
	tb.Helper()
	srv := httptest.NewServer(NewHandler(benchLocal(tb)))
	tb.Cleanup(srv.Close)
	c := NewClient(srv.URL, "bench")
	held, err := c.Query(bg, benchFig1a, "warm-up")
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if n, err := c.Query(bg, benchFig1a, "r"); err != nil || n != held {
			tb.Fatalf("warm query: %v, the held node %v", err, n == held)
		}
	}
}

func TestWarmQueryAllocations(t *testing.T) {
	call := warmQueryOverHTTP(t)
	if got := testing.AllocsPerRun(100, call); got > warmQueryAllocBound {
		t.Errorf("warm Client.Query over HTTP: %.1f allocs, want <= %d", got, warmQueryAllocBound)
	}
}

// BenchmarkQueryWarmHTTP is a warm Client.Query of Figure 1a against a
// source behind an httptest server: one conditional POST answered 304,
// ~33 allocs and ~4.4 kB. ~59 allocs and ~9.7 kB mean the answer ships
// and is parsed again.
func BenchmarkQueryWarmHTTP(b *testing.B) {
	call := warmQueryOverHTTP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// Client.BaseURL is exported: a value set after NewClient is where the
// next query goes, though the client keeps its /query target ready.
func TestClientQueryFollowsAChangedBaseURL(t *testing.T) {
	var hits [2]atomic.Int64
	var urls [2]string
	for i := range hits {
		h := NewHandler(benchLocal(t))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	c := NewClient(urls[0], "moved")
	for i, base := range []string{urls[0], urls[1], urls[0]} {
		c.BaseURL = base
		if _, err := c.Query(bg, revalidatedQuery, "r"); err != nil {
			t.Fatal(err)
		}
		if want := []int64{1, 1, 2}[i]; hits[i%2].Load() != want {
			t.Errorf("query %d reached %s %d times, want %d", i, base, hits[i%2].Load(), want)
		}
	}
	if hits[0].Load()+hits[1].Load() != 3 {
		t.Errorf("three queries reached the servers %d + %d times", hits[0].Load(), hits[1].Load())
	}
}
