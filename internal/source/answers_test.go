package source

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privateiye/internal/psi"
	"privateiye/internal/xmltree"
)

// A source keeps its answer to the last peer column it exponentiated in
// each suite, by the envelope's digest (DESIGN.md §14): these tests hold
// a kept answer to the bytes the miss path writes, and the memo to
// keeping nothing it was not asked for and validated.

// warmExponentiateAllocBound caps a warm Local.PSIExponentiate of a
// 500-element x25519 envelope: measured 0 (the digest's hash state stays
// on the stack), against 33 allocations and ~80 kB when every call
// decodes the column, looks each element up in the party's memo and
// marshals the answer again.
const warmExponentiateAllocBound = 0

// peerColumn is a peer party's blinded column of n names in the suite.
func peerColumn(t testing.TB, suite string, n int) *xmltree.Node {
	t.Helper()
	s, err := psi.SuiteByName(suite)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := psi.NewParty(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("peer-%04d", i)
	}
	return psi.MarshalElems(s, peer.BlindBatch(items))
}

// postExponentiate posts env to a source handler at url and returns the
// body and its Content-Length.
func postExponentiate(t testing.TB, url string, env *xmltree.Node) (body, contentLength string) {
	t.Helper()
	resp, err := http.Post(url+"/psi/exponentiate", "application/xml", strings.NewReader(env.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /psi/exponentiate: %d %v %s", resp.StatusCode, err, b)
	}
	return string(b), resp.Header.Get("Content-Length")
}

// writeNode is WriteNode's body for n.
func writeNode(n *xmltree.Node) string {
	rec := httptest.NewRecorder()
	WriteNode(rec, n)
	return rec.Body.String()
}

// uncached is the answer built with no memo in the way: the party's
// exponentiation of env, marshalled and written by WriteNode.
func uncached(t testing.TB, l *Local, env *xmltree.Node) string {
	t.Helper()
	s, err := psi.SuiteByName(psi.WireSuiteName(env))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.psiParty(s)
	if err != nil {
		t.Fatal(err)
	}
	in, err := psi.UnmarshalElems(env, s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExponentiateBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	return writeNode(psi.MarshalElems(s, out))
}

// keptBody reads l's answer memo slot for the suite: nil when empty,
// else the body of the answer kept there.
func keptBody(l *Local, suite string) *string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := l.answers[suite].c; c != nil {
		return &c.body
	}
	return nil
}

// A kept answer is the answer: over HTTP the cold body, the warm body and
// WriteNode of the in-process node are one string, with its length; in
// process the cold node and the warm node write it too. Each is what the
// party's exponentiation marshals, in both suites.
func TestExponentiateWarmBytesAreColdBytes(t *testing.T) {
	for _, suite := range []string{psi.SuiteNameX25519, psi.SuiteNameModP2048} {
		t.Run(suite, func(t *testing.T) {
			l, err := NewLocal(benchSource(t, 0), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewHandler(l))
			defer srv.Close()

			overHTTP := peerColumn(t, suite, 9)
			cold, coldLen := postExponentiate(t, srv.URL, overHTTP)
			warm, warmLen := postExponentiate(t, srv.URL, overHTTP)
			node, err := l.PSIExponentiate(bg, overHTTP)
			if err != nil {
				t.Fatal(err)
			}
			if warm != cold || writeNode(node) != cold || uncached(t, l, overHTTP) != cold {
				t.Errorf("over HTTP: cold, warm, in-process and uncached bytes differ:\ncold %q\nwarm %q", cold, warm)
			}
			if want := strconv.Itoa(len(cold)); coldLen != want || warmLen != want {
				t.Errorf("Content-Length %s / %s, want %s", coldLen, warmLen, want)
			}

			inProcess := peerColumn(t, suite, 9)
			first, err := l.PSIExponentiate(bg, inProcess)
			if err != nil {
				t.Fatal(err)
			}
			second, err := l.PSIExponentiate(bg, inProcess)
			if err != nil {
				t.Fatal(err)
			}
			want := uncached(t, l, inProcess)
			if writeNode(first) != want || writeNode(second) != want {
				t.Errorf("in process: cold or warm node does not write the uncached bytes")
			}
			if body, _ := postExponentiate(t, srv.URL, inProcess); body != want {
				t.Errorf("over HTTP after in process: %q, want %q", body, want)
			}
			// The newer column took the suite's one slot.
			if kept := keptBody(l, suite); kept == nil || *kept != want {
				t.Errorf("the suite's slot does not hold the last column's answer")
			}
		})
	}
}

// A refused envelope is never kept, and a kept canonical answer answers
// none of its misspelled twins: each is still refused, in process and
// with a 400, in both suites.
func TestExponentiateMemoKeepsNoRefusal(t *testing.T) {
	for _, suite := range []string{psi.SuiteNameX25519, psi.SuiteNameModP2048} {
		t.Run(suite, func(t *testing.T) {
			l, err := NewLocal(hospitalSource(t), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewHandler(l))
			defer srv.Close()
			canon, rows := nonCanonical(t, suite)

			refusesAll(t, l, srv.URL, suite, rows)
			if len(l.answers) != 0 {
				t.Fatalf("refused envelopes left answers kept: %v", l.answers)
			}
			want, _ := postExponentiate(t, srv.URL, canon)
			if _, err := l.PSIExponentiate(bg, canon); err != nil {
				t.Fatal(err)
			}
			refusesAll(t, l, srv.URL, suite, rows)
			if kept := keptBody(l, suite); kept == nil || *kept != want || len(l.answers) != 1 {
				t.Errorf("refused envelopes changed the kept canonical answer")
			}
		})
	}
}

// The memo keeps one answer per suite: a new column takes its suite's
// slot and leaves the other suite's alone, and the column it replaced
// misses and is answered as before.
func TestExponentiateMemoKeepsOneAnswerPerSuite(t *testing.T) {
	l, err := NewLocal(benchSource(t, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x1, x2 := peerColumn(t, psi.SuiteNameX25519, 5), peerColumn(t, psi.SuiteNameX25519, 6)
	m := peerColumn(t, psi.SuiteNameModP2048, 3)
	want := map[*xmltree.Node]string{x1: uncached(t, l, x1), x2: uncached(t, l, x2), m: uncached(t, l, m)}
	for i, env := range []*xmltree.Node{x1, m, x2, x1} {
		n, err := l.PSIExponentiate(bg, env)
		if err != nil {
			t.Fatal(err)
		}
		if writeNode(n) != want[env] {
			t.Errorf("call %d: answer differs from the uncached one", i)
		}
		if kept := keptBody(l, psi.WireSuiteName(env)); kept == nil || *kept != want[env] {
			t.Errorf("call %d: the suite's slot does not hold this column's answer", i)
		}
	}
	if kept := keptBody(l, psi.SuiteNameModP2048); kept == nil || *kept != want[m] || len(l.answers) != 2 {
		t.Errorf("x25519 columns disturbed the modp2048 slot")
	}
}

// Posters in process and over HTTP race on a few peer columns, so that
// they also race each other for the suite's one slot. Every answer is
// the uncached one for its column.
func TestExponentiateConcurrentPostersAgree(t *testing.T) {
	l, err := NewLocal(benchSource(t, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(l))
	defer srv.Close()
	var envs []*xmltree.Node
	var want []string
	for i := 0; i < 4; i++ {
		env := peerColumn(t, psi.SuiteNameX25519, 20+i)
		envs = append(envs, env)
		want = append(want, uncached(t, l, env))
	}
	endpoints := []Endpoint{l, l, NewClient(srv.URL, "bench"), NewClient(srv.URL, "bench")}

	var wg sync.WaitGroup
	errs := make(chan error, len(endpoints))
	for g, ep := range endpoints {
		wg.Add(1)
		go func(g int, ep Endpoint) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				i := (g + r) % len(envs)
				n, err := ep.PSIExponentiate(bg, envs[i])
				if err != nil {
					errs <- err
					return
				}
				if got := writeNode(n); got != want[i] {
					errs <- fmt.Errorf("%T: column %d answered %q, want %q", ep, i, got, want[i])
					return
				}
			}
		}(g, ep)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if kept := keptBody(l, psi.SuiteNameX25519); kept == nil || len(l.answers) != 1 {
		t.Errorf("%d slots kept after the race, want the x25519 one", len(l.answers))
	}
}

func TestWarmExponentiateAllocations(t *testing.T) {
	l, err := NewLocal(benchSource(t, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := peerColumn(t, psi.SuiteNameX25519, 500)
	if _, err := l.PSIExponentiate(bg, env); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := l.PSIExponentiate(bg, env); err != nil {
			t.Fatal(err)
		}
	})
	if got > warmExponentiateAllocBound {
		t.Errorf("warm PSIExponentiate: %.1f allocs, want <= %d", got, warmExponentiateAllocBound)
	}
}

// BenchmarkPSIExponentiateWarm is a warm Local.PSIExponentiate of a
// 500-element x25519 peer column: the answer memo's hit. allocs/op in
// the dozens, and tens of kB/op, mean the column is decoded and the
// answer marshalled on every call again.
func BenchmarkPSIExponentiateWarm(b *testing.B) {
	l, err := NewLocal(benchSource(b, 0), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	env := peerColumn(b, psi.SuiteNameX25519, 500)
	if _, err := l.PSIExponentiate(bg, env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.PSIExponentiate(bg, env); err != nil {
			b.Fatal(err)
		}
	}
}
