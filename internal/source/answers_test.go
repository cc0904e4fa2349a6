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

// A source answers a peer column by decoding it, answering each element
// from its party's per-element memo or raising it to the secret, and
// marshalling the result (DESIGN.md §14): these tests hold every answer,
// warm or cold, in process or over HTTP, to the bytes of the party's own
// exponentiation, and refusals to staying refusals.

// warmExponentiateAllocBound caps a warm Local.PSIExponentiate of a
// 500-element x25519 envelope: measured 33 (decode the column, look each
// element up in the party's memo, marshal the answer), against ~1,500
// when ExponentiateBatch runs the ladder for every element. The margin
// absorbs a few allocations of codec churn, far short of a memo that is
// off the path.
const warmExponentiateAllocBound = 40

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

// A warm answer is the cold answer: over HTTP the cold body, the warm
// body and WriteNode of the in-process node are one string, with its
// length; in process the cold node and the warm node write it too. Each
// is what the party's exponentiation marshals, in both suites.
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
		})
	}
}

// Every misspelled twin of a canonical column is refused, in process and
// with a 400, in both suites, before and after the canonical column was
// answered: the per-element memo a canonical answer warms answers none
// of them.
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
			want, _ := postExponentiate(t, srv.URL, canon)
			if _, err := l.PSIExponentiate(bg, canon); err != nil {
				t.Fatal(err)
			}
			refusesAll(t, l, srv.URL, suite, rows)
			if got, _ := postExponentiate(t, srv.URL, canon); got != want {
				t.Errorf("refused envelopes changed the canonical answer")
			}
		})
	}
}

// Posters in process and over HTTP race on a few peer columns in both
// suites through the parties' per-element memos. Every answer is the
// uncached one for its column.
func TestExponentiateConcurrentPostersAgree(t *testing.T) {
	l, err := NewLocal(benchSource(t, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(l))
	defer srv.Close()
	var envs []*xmltree.Node
	var want []string
	for i, suite := range []string{psi.SuiteNameX25519, psi.SuiteNameX25519, psi.SuiteNameModP2048, psi.SuiteNameX25519} {
		env := peerColumn(t, suite, 20+i)
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
// 500-element x25519 peer column: decoded, answered element by element
// from the party's memo, and marshalled (~33 allocs, ~80 kB). allocs/op
// over a thousand mean the memo is off the path and every element runs
// the ladder again.
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
