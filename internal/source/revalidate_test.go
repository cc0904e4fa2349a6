package source_test

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// A kept blinded column carries a strong entity tag, the digest of its
// bytes, and GET /psi/blinded answers a caller that sends it back 304
// with no body (DESIGN.md §14, Revalidation). These tests hold the 304
// to the checks the 200 runs, to the bytes it stands for, and the
// Client to the column it kept.

// warmOverlapAllocBound caps a warm Mediator.Overlap over two 500-name
// sources behind httptest servers, both ends in this process: measured
// 140 (two conditional GETs and their 304s, client and server side, most
// of it net/http's per-request objects), against 166 when each request
// went through http.Client.Do with its default headers, and 430 when the
// round fetched both columns and relayed each to be exponentiated.
const warmOverlapAllocBound = 150

// entityTag is the ETag a kept column's body must carry.
func entityTag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + base64.RawURLEncoding.EncodeToString(sum[:]) + `"`
}

// observedSource is a relational source of one name table, with a
// registry its handler serves at /metrics.
func observedSource(t testing.TB, name string, tab *relational.Table) (*source.Local, *obs.Registry) {
	t.Helper()
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: openPolicy(t, name), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return local, reg
}

// get sends GET path to h, with If-None-Match when inm is not empty,
// under ctx.
func get(ctx context.Context, h http.Handler, path, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// series reads one sample of reg's exposition; -1 when it is absent.
func series(t testing.TB, reg *obs.Registry, name string) int {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	return -1
}

// A warm conditional GET is a 304 with no body that carries the tag of
// the 200 it revalidates, and the tag is the digest of that 200's bytes.
// Another tag, or the tag unquoted, gets the 200.
func TestBlindedColumnRevalidatesWith304(t *testing.T) {
	a, reg := observedSource(t, "A", nameTable(t, "people", "alice", "bob", "carol"))
	h := source.NewHandler(a)
	const notModified = `piye_psi_blinded_not_modified_total{source="A",suite="x25519"}`

	first := get(ctx, h, "/psi/blinded?field=name", "")
	tag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || tag != entityTag(first.Body.Bytes()) {
		t.Fatalf("first GET: %d, ETag %s, want 200 and %s", first.Code, tag, entityTag(first.Body.Bytes()))
	}
	if n := series(t, reg, notModified); n != 0 {
		t.Errorf("%s = %d before any 304, want 0", notModified, n)
	}
	warm := get(ctx, h, "/psi/blinded?field=name", tag)
	if warm.Code != http.StatusNotModified || warm.Body.Len() != 0 || warm.Header().Get("ETag") != tag {
		t.Fatalf("conditional GET: %d, %d body bytes, ETag %s; want 304, none, %s", warm.Code, warm.Body.Len(), warm.Header().Get("ETag"), tag)
	}
	if n := series(t, reg, notModified); n != 1 {
		t.Errorf("%s = %d after one 304, want 1", notModified, n)
	}
	for _, other := range []string{`"nope"`, tag[1 : len(tag)-1]} {
		if rec := get(ctx, h, "/psi/blinded?field=name", other); rec.Code != http.StatusOK || rec.Body.String() != first.Body.String() {
			t.Errorf("If-None-Match %s: %d, want the 200", other, rec.Code)
		}
	}
	// Each suite has its own column and its own tag.
	modp := get(ctx, h, "/psi/blinded?field=name&suite=modp2048", tag)
	if modp.Code != http.StatusOK || modp.Header().Get("ETag") == tag || modp.Header().Get("ETag") != entityTag(modp.Body.Bytes()) {
		t.Errorf("modp2048 with the x25519 tag: %d, ETag %s", modp.Code, modp.Header().Get("ETag"))
	}
}

// A conditional GET the 200 path refuses is refused the same way,
// whatever If-None-Match carries: the 304 comes after every check.
func TestConditionalBlindedGetIsRefusedAsThe200Is(t *testing.T) {
	pinned, _ := observedSource(t, "P", nameTable(t, "people", "alice", "bob"))
	pinned.AdvertisedSuites = []string{psi.SuiteNameModP2048}
	h := source.NewHandler(pinned)
	tag := get(ctx, h, "/psi/blinded?field=name", "").Header().Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on a kept column")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name, path string
		ctx        context.Context
	}{
		{"an unadvertised suite", "/psi/blinded?field=name&suite=x25519", ctx},
		{"a suite no build runs", "/psi/blinded?field=name&suite=p256", ctx},
		{"a missing field", "/psi/blinded?suite=modp2048", ctx},
		{"a cancelled context", "/psi/blinded?field=name", cancelled},
	} {
		plain := get(tc.ctx, h, tc.path, "")
		if plain.Code < 400 {
			t.Fatalf("%s: the 200 path answered %d", tc.name, plain.Code)
		}
		for _, inm := range []string{tag, "*"} {
			rec := get(tc.ctx, h, tc.path, inm)
			if rec.Code != plain.Code || rec.Body.String() != plain.Body.String() || rec.Header().Get("ETag") != "" {
				t.Errorf("%s, If-None-Match %s: %d %q (ETag %q), want %d %q", tc.name, inm, rec.Code, rec.Body.String(), rec.Header().Get("ETag"), plain.Code, plain.Body.String())
			}
		}
	}
}

// A column that is never kept carries no tag and never answers 304: a
// source that holds documents, and a field no table holds.
func TestUnkeptColumnsCarryNoETag(t *testing.T) {
	root := xmltree.NewElem("reg").Append(xmltree.NewElem("patient").Append(xmltree.NewText("name", "alice")))
	src, err := source.New(source.Config{Name: "D", Docs: []*xmltree.Node{root}, Policy: openPolicy(t, "D")})
	if err != nil {
		t.Fatal(err)
	}
	d, err := source.NewLocal(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := nameSource(t, "A", "alice", "bob")
	for _, tc := range []struct {
		name string
		h    http.Handler
		path string
	}{
		{"documents", source.NewHandler(d), "/psi/blinded?field=name"},
		{"a field no table holds", source.NewHandler(a), "/psi/blinded?field=nosuch"},
	} {
		first := get(ctx, tc.h, tc.path, "")
		for _, inm := range []string{"", entityTag(first.Body.Bytes()), "*"} {
			rec := get(ctx, tc.h, tc.path, inm)
			if rec.Code != http.StatusOK || rec.Header().Get("ETag") != "" {
				t.Errorf("%s, If-None-Match %q: %d, ETag %q; want 200 and none", tc.name, inm, rec.Code, rec.Header().Get("ETag"))
			}
		}
	}
}

// The tag follows the bytes: an Insert changes the column and its tag,
// and the old tag gets the new column.
func TestInsertChangesTheETag(t *testing.T) {
	people := nameTable(t, "people", "alice", "bob")
	a, _ := observedSource(t, "A", people)
	h := source.NewHandler(a)
	old := get(ctx, h, "/psi/blinded?field=name", "").Header().Get("ETag")
	if err := people.Insert(relational.Row{relational.Str("carol")}); err != nil {
		t.Fatal(err)
	}
	rec := get(ctx, h, "/psi/blinded?field=name", old)
	tag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || tag == old || tag != entityTag(rec.Body.Bytes()) {
		t.Fatalf("after an Insert, the old tag got %d with ETag %s (old %s)", rec.Code, tag, old)
	}
	if col, err := xmltree.ParseString(rec.Body.String()); err != nil || count(t, col) != 3 {
		t.Fatalf("after an Insert: %v, want a column of 3", err)
	}
	if rec := get(ctx, h, "/psi/blinded?field=name", tag); rec.Code != http.StatusNotModified {
		t.Errorf("the new tag got %d, want 304", rec.Code)
	}
}

// The tag is the bytes' digest, not the data version: a new Local over
// the same rows draws a new secret, blinds to other bytes and tags them
// differently, so a caller that kept the old column gets the new one.
func TestRestartedSourceHasANewETag(t *testing.T) {
	people := nameTable(t, "people", "alice", "bob")
	first, _ := observedSource(t, "A", people)
	old := get(ctx, source.NewHandler(first), "/psi/blinded?field=name", "").Header().Get("ETag")
	restarted, _ := observedSource(t, "A", people)
	rec := get(ctx, source.NewHandler(restarted), "/psi/blinded?field=name", old)
	if tag := rec.Header().Get("ETag"); rec.Code != http.StatusOK || tag == "" || tag == old {
		t.Errorf("restarted source: %d with ETag %s against the old %s, want a 200 and a new tag", rec.Code, tag, old)
	}
}

// The Client keeps the column it read and revalidates it: the second
// read sends the tag, is answered 304 and returns the very node the
// first returned. Another field is asked for without a tag.
func TestClientRevalidatesItsKeptColumn(t *testing.T) {
	a, reg := observedSource(t, "A", nameTable(t, "people", "alice", "bob"))
	var sent atomic.Pointer[string]
	h := source.NewHandler(a)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inm := r.Header.Get("If-None-Match")
		sent.Store(&inm)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := source.NewClient(srv.URL, "A")
	first := blinded(t, c)
	if *sent.Load() != "" {
		t.Errorf("the first GET sent If-None-Match %q", *sent.Load())
	}
	if second := blinded(t, c); second != first || *sent.Load() == "" {
		t.Errorf("the second GET (If-None-Match %q) returned another node", *sent.Load())
	}
	if n := series(t, reg, `piye_psi_blinded_not_modified_total{source="A",suite="x25519"}`); n != 1 {
		t.Errorf("%d 304s, want 1", n)
	}
	if _, err := c.PSIBlinded(ctx, "nosuch", ""); err != nil || *sent.Load() != "" {
		t.Errorf("another field: %v, If-None-Match %q", err, *sent.Load())
	}
	// The unkept column replaced the slot, so the next read is a 200.
	if again := blinded(t, c); again.Text != first.Text || *sent.Load() != "" {
		t.Errorf("after another field: If-None-Match %q, same column %v", *sent.Load(), again.Text == first.Text)
	}
}

// A 304 the Client did not ask for is a failure, not an empty column:
// an error the resilience layer retries and counts against the node.
func TestClientRefusesAnUnsolicited304(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"x"`)
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()
	n, err := source.NewClient(srv.URL, "liar").PSIBlinded(ctx, "name", "")
	var he *source.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotModified || !he.Retryable() {
		t.Fatalf("an unsolicited 304 returned %v, %v; want a retryable HTTPError", n, err)
	}
}

// warmOverlapOverHTTP is Mediator.Overlap over two 500-name sources
// behind httptest servers, warmed by one round; it returns the round.
func warmOverlapOverHTTP(tb testing.TB) func() {
	tb.Helper()
	all := names(600)
	var eps []source.Endpoint
	for i, rows := range [][]string{all[:500], all[100:]} {
		l, _ := observedSource(tb, string(rune('A'+i)), nameTable(tb, "people", rows...))
		srv := httptest.NewServer(source.NewHandler(l))
		tb.Cleanup(srv.Close)
		eps = append(eps, source.NewClient(srv.URL, l.Name()))
	}
	m, err := mediator.New(mediator.Config{Endpoints: eps})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	round := func() {
		if n, err := m.Overlap(ctx, "A", "B", "name"); err != nil || n != 400 {
			tb.Fatalf("overlap %d, %v; want 400", n, err)
		}
	}
	round()
	return round
}

func TestWarmOverlapAllocations(t *testing.T) {
	round := warmOverlapOverHTTP(t)
	if got := testing.AllocsPerRun(50, round); got > warmOverlapAllocBound {
		t.Errorf("warm Mediator.Overlap over HTTP: %.1f allocs, want <= %d", got, warmOverlapAllocBound)
	}
}

// BenchmarkOverlapWarmHTTP is a warm Mediator.Overlap over two 500-name
// sources behind httptest servers: two conditional GETs answered 304.
// Hundreds more allocs/op and tens of kB/op mean a warm round fetches
// the columns or relays them to be exponentiated again.
func BenchmarkOverlapWarmHTTP(b *testing.B) {
	round := warmOverlapOverHTTP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
