package source

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/psi"
	"privateiye/internal/xmltree"
)

// Exchange is the tier's own HTTP/1.1 client (DESIGN.md §8, Transport).
// These tests hold it to the bytes net/http's Transport wrote, to its
// deadline and reuse rules, and to the answers it refuses.

// idleTo is how many connections to srv's host the pool holds idle.
func idleTo(srv string) int {
	conns.mu.Lock()
	defer conns.mu.Unlock()
	return len(conns.idle[strings.TrimPrefix(srv, "http://")])
}

// rawPeer is a TCP listener whose every connection is served by serve.
func rawPeer(t *testing.T, serve func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				serve(c)
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// An internal request is byte for byte what net/http wrote for it with
// no User-Agent and no Accept-Encoding: the wire did not change with the
// client.
func TestExchangeWritesWhatNetHTTPWrote(t *testing.T) {
	for _, tc := range []struct {
		method, uri     string
		body            string
		requester, etag string
	}{
		{http.MethodPost, "/query", "FOR //x RETURN //y", "dr-lee", ""},
		{http.MethodPost, "/query", "FOR //x RETURN //y", "dr-lee", `"tag"`},
		{http.MethodPost, "/psi/exponentiate", "<psi-elems/>", "", ""},
		{http.MethodPost, "/query", "", "r", ""},
		{http.MethodGet, "/psi/blinded?field=age&suite=x25519", "", "", `"tag"`},
		{http.MethodGet, "/readyz", "", "", ""},
	} {
		x := exchange{method: tc.method, host: "127.0.0.1:7101", uri: tc.uri, body: []byte(tc.body), requester: tc.requester, etag: tc.etag}
		if tc.body == "" {
			x.body = nil
		}
		var got bytes.Buffer
		bw := bufio.NewWriter(&got)
		x.write(bw)
		bw.Flush()

		var body io.Reader
		if tc.body != "" || tc.method == http.MethodPost {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, "http://127.0.0.1:7101"+tc.uri, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header["User-Agent"] = []string{""}
		if tc.requester != "" {
			req.Header["X-Requester"] = []string{tc.requester}
		}
		if tc.etag != "" {
			req.Header["If-None-Match"] = []string{tc.etag}
		}
		var want bytes.Buffer
		if err := req.Write(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s %s:\n got %q\nwant %q", tc.method, tc.uri, got.String(), want.String())
		}
	}
}

// deadlineConn records the deadlines set on it.
type deadlineConn struct {
	net.Conn
	mu  sync.Mutex
	set []time.Time
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.set = append(c.set, t)
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *deadlineConn) first() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.set) == 0 {
		return time.Time{}
	}
	return c.set[0]
}

// An exchange whose context has no deadline runs under exchangeCeiling;
// one with a deadline of its own, even past the ceiling, runs under that
// deadline as it is. Either is the deadline set on the connection.
func TestExchangeDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	pooled := func() *deadlineConn {
		c, err := net.Dial("tcp", host)
		if err != nil {
			t.Fatal(err)
		}
		dc := &deadlineConn{Conn: c}
		conns.put(host, dc)
		return dc
	}

	dc := pooled()
	before := time.Now()
	r, err := Exchange(context.Background(), http.MethodGet, srv.URL, nil, "", "")
	if err != nil || string(r.Body) != "<ok/>" {
		t.Fatalf("exchange: %q, %v", r.Body, err)
	}
	if d := dc.first(); d.Before(before.Add(exchangeCeiling)) || d.After(time.Now().Add(exchangeCeiling)) {
		t.Errorf("no-deadline exchange: deadline %v from now, want %v", time.Until(d), exchangeCeiling)
	}

	own, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	want, _ := own.Deadline()
	dc = pooled()
	if _, err := Exchange(own, http.MethodGet, srv.URL, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	if d := dc.first(); !d.Equal(want) {
		t.Errorf("an exchange with its own deadline ran under %v, want %v", d, want)
	}
}

// A pooled connection whose peer was replaced behind the same address is
// tried, fails before any answer byte, and the request goes out once more
// on a fresh connection: the caller sees the new peer's answer.
func TestExchangeSurvivesAReplacedPeer(t *testing.T) {
	answer := func(s string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, s) })
	}
	old := httptest.NewServer(answer("old"))
	if r, err := Exchange(bg, http.MethodPost, old.URL+"/query", []byte("q"), "r", ""); err != nil || string(r.Body) != "old" {
		t.Fatalf("first exchange: %q, %v", r.Body, err)
	}
	if n := idleTo(old.URL); n != 1 {
		t.Fatalf("%d idle connections after the first exchange, want 1", n)
	}
	addr := old.Listener.Addr().String()
	old.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	replaced := httptest.NewUnstartedServer(answer("new"))
	replaced.Listener.Close()
	replaced.Listener = ln
	replaced.Start()
	defer replaced.Close()

	r, err := Exchange(bg, http.MethodPost, replaced.URL+"/query", []byte("q"), "r", "")
	if err != nil || string(r.Body) != "new" {
		t.Fatalf("exchange after the replacement: %q, %v", r.Body, err)
	}
}

// A peer that reads each request on a reused connection and closes it is
// sent the request exactly twice (the reused connection, then one fresh
// one), and the call fails once.
func TestExchangeTriesAClosingPeerTwice(t *testing.T) {
	var requests atomic.Int64
	url := rawPeer(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, req.Body)
			if requests.Add(1) > 1 {
				return // read, then close without a byte
			}
			_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		}
	})
	if r, err := Exchange(bg, http.MethodPost, url+"/query", []byte("q"), "r", ""); err != nil || string(r.Body) != "ok" {
		t.Fatalf("first exchange: %q, %v", r.Body, err)
	}
	if _, err := Exchange(bg, http.MethodPost, url+"/query", []byte("q"), "r", ""); err == nil {
		t.Fatal("an exchange the peer never answered succeeded")
	}
	if n := requests.Load() - 1; n != 2 {
		t.Errorf("the unanswered request was sent %d times, want 2", n)
	}
	if n := idleTo(url); n != 0 {
		t.Errorf("%d connections pooled after the failure", n)
	}
}

// A context cancelled while the body is arriving ends the exchange at
// once with ctx.Err(), and the connection, left mid-answer, is closed.
func TestExchangeCancelledMidBody(t *testing.T) {
	midBody, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	url := rawPeer(t, func(c net.Conn) {
		if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
			return
		}
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789")
		close(midBody)
		<-release
	})
	ctx, cancel := context.WithCancel(bg)
	go func() {
		<-midBody
		cancel()
	}()
	start := time.Now()
	_, err := Exchange(ctx, http.MethodGet, url+"/summary", nil, "", "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exchange: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled exchange returned after %v", d)
	}
	if n := idleTo(url); n != 0 {
		t.Errorf("%d connections pooled after a cancelled body", n)
	}
}

// A context cancelled while an exchange on a reused connection waits for
// the first byte of the answer ends it at once with context.Canceled: the
// watcher's expired deadline is not a closed idle connection, so the
// request is not sent again, and the connection is not pooled.
func TestExchangeCancelledAwaitingAnswerOnReusedConn(t *testing.T) {
	var requests, dials atomic.Int64
	waiting, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	url := rawPeer(t, func(c net.Conn) {
		dials.Add(1)
		br := bufio.NewReader(c)
		for {
			if _, err := http.ReadRequest(br); err != nil {
				return
			}
			if requests.Add(1) > 1 {
				close(waiting)
				<-release
				return
			}
			_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		}
	})
	if _, err := Exchange(bg, http.MethodGet, url+"/readyz", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	go func() {
		<-waiting
		cancel()
	}()
	start := time.Now()
	_, err := Exchange(ctx, http.MethodGet, url+"/readyz", nil, "", "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exchange: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled exchange returned after %v", d)
	}
	if r, d := requests.Load(), dials.Load(); r != 2 || d != 1 {
		t.Errorf("the peer saw %d requests on %d connections, want 2 on 1", r, d)
	}
	if n := idleTo(url); n != 0 {
		t.Errorf("%d connections pooled after a cancelled exchange", n)
	}
}

// Exchanges whose contexts end just before, during or just after their
// answer each fail with ctx.Err() or succeed, and none leaves a pooled
// connection that a late watch expires under a later exchange: a batch
// under context.Background() on the same pool then fails nothing. The
// late watch needs a watcher that was slow to run, so there are more
// callers than CPUs and five cancelled batches. Run under -race.
func TestExchangeCancellationStress(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer srv.Close()
	const callers, calls = 16, 60
	run := func(cancelled bool) (failed int64) {
		var wg sync.WaitGroup
		var n atomic.Int64
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < calls; j++ {
					ctx, cancel := context.WithCancel(bg)
					if cancelled {
						switch (i + j) % 3 {
						case 0:
							cancel()
						case 1:
							time.AfterFunc(time.Duration(j%7)*20*time.Microsecond, cancel)
						}
					}
					r, err := Exchange(ctx, http.MethodPost, srv.URL+"/query", []byte("q"), "r", "")
					cancel()
					switch {
					case err == nil && string(r.Body) != "<ok/>":
						t.Errorf("answer %q", r.Body)
					case err != nil && (!cancelled || !errors.Is(err, context.Canceled)):
						t.Errorf("caller %d call %d: %v", i, j, err)
						n.Add(1)
					}
					r.Release()
				}
			}(i)
		}
		wg.Wait()
		return n.Load()
	}
	for round := 0; round < 5; round++ {
		run(true)
	}
	if n := run(false); n != 0 {
		t.Errorf("%d of %d exchanges failed after the cancelled batch", n, callers*calls)
	}
}

// No watcher outlives its connection: once the pool has closed every
// connection it dialled (past maxIdlePerHost in put, on a failed
// exchange, and idle in sweep), the goroutine count is back to where it
// started.
func TestExchangeWatchersEndWithTheirConnections(t *testing.T) {
	base := runtime.NumGoroutine()
	const callers = maxIdlePerHost + 8
	var arrived atomic.Int64
	all := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" { // no framing: the exchange fails
			conn, _, _ := w.(http.Hijacker).Hijack()
			_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\n\r\n")
			conn.Close()
			return
		}
		if arrived.Add(1) == callers {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
		}
		_, _ = w.Write([]byte("<ok/>"))
	}))
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			if _, err := Exchange(ctx, http.MethodGet, srv.URL+"/readyz", nil, "", ""); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := idleTo(srv.URL); n != maxIdlePerHost {
		t.Fatalf("%d idle connections after %d concurrent exchanges, want %d", n, callers, maxIdlePerHost)
	}
	if _, err := Exchange(bg, http.MethodGet, srv.URL+"/bad", nil, "", ""); err == nil {
		t.Fatal("an unframed answer was accepted")
	}
	if n := idleTo(srv.URL); n != maxIdlePerHost-1 {
		t.Fatalf("%d idle connections after a failed exchange, want %d", n, maxIdlePerHost-1)
	}
	conns.mu.Lock()
	for _, list := range conns.idle {
		for i := range list {
			list[i].since = time.Now().Add(-idleTimeout)
		}
	}
	conns.mu.Unlock()
	conns.sweep()
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every connection closed, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// A pooled exchange under a context that can be cancelled allocates
// exactly what the same exchange under context.Background() does: the
// watch is two channel operations on the connection's own goroutine.
func TestCancellableExchangeAllocatesNothingMore(t *testing.T) {
	if raceEnabled {
		t.Skip("the exchange's buffer pools drop Puts under the race detector")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer srv.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(200, func() {
			r, err := Exchange(ctx, http.MethodPost, srv.URL+"/query", []byte("q"), "r", "")
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		})
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	plain := allocs(bg)
	if got := allocs(ctx); got != plain {
		t.Errorf("a cancellable exchange allocates %v objects, a plain one %v", got, plain)
	}
}

// A chunked answer is read whole, its trailer included, and leaves its
// connection fit for the next exchange.
func TestExchangeChunkedAnswer(t *testing.T) {
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", "X-Checksum")
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "<part n=\"%d\">%s</part>", i, strings.Repeat("x", 3000))
			w.(http.Flusher).Flush()
		}
		w.Header().Set("X-Checksum", "ignored")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	var want strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&want, "<part n=\"%d\">%s</part>", i, strings.Repeat("x", 3000))
	}
	for i := 0; i < 2; i++ {
		r, err := Exchange(bg, http.MethodGet, srv.URL+"/summary", nil, "", "")
		if err != nil || string(r.Body) != want.String() {
			t.Fatalf("chunked answer %d: %d bytes, %v", i, len(r.Body), err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("two chunked answers took %d connections, want 1", n)
	}
}

// An answer whose Content-Length is over MaxAnswerBytes is refused before
// its body is read, and its connection closed.
func TestExchangeRefusesAnOversizedAnswer(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	url := rawPeer(t, func(c net.Conn) {
		if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n<integrated>", MaxAnswerBytes+1)
		<-release
	})
	_, err := Exchange(bg, http.MethodPost, url+"/query", []byte("q"), "r", "")
	if !errors.Is(err, ErrAnswerTooLarge) {
		t.Fatalf("oversized answer: %v, want ErrAnswerTooLarge", err)
	}
	if n := idleTo(url); n != 0 {
		t.Errorf("%d connections pooled after an oversized answer", n)
	}
}

// Bytes past an answer's framing mean the connection is out of step with
// its peer: the answer is returned, and the connection is not reused.
func TestExchangeDropsAConnectionWithBytesPastTheAnswer(t *testing.T) {
	url := rawPeer(t, func(c net.Conn) {
		if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
			return
		}
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n")
		_, _ = io.Copy(io.Discard, c)
	})
	r, err := Exchange(bg, http.MethodGet, url+"/readyz", nil, "", "")
	if err != nil || string(r.Body) != "ok" {
		t.Fatalf("exchange: %q, %v", r.Body, err)
	}
	if n := idleTo(url); n != 0 {
		t.Errorf("%d connections pooled with bytes past the answer", n)
	}
}

// A requester or tag holding CR, LF or another control byte, and a target
// that is not http://, are refused before anything is dialled or written.
func TestExchangeRefusesWhatItCannotWrite(t *testing.T) {
	var requests, dials atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	for _, tc := range []struct{ target, requester, etag string }{
		{srv.URL + "/query", "dr-lee\r\nX-Requester: admin", ""},
		{srv.URL + "/query", "dr-lee\n", ""},
		{srv.URL + "/query", "dr\x00lee", ""},
		{srv.URL + "/query", "dr-lee", "\"t\"\r\n"},
		{srv.URL + "/query?x=a b", "dr-lee", ""},
		{strings.Replace(srv.URL, "http://", "https://", 1) + "/query", "dr-lee", ""},
		{strings.TrimPrefix(srv.URL, "http://") + "/query", "dr-lee", ""},
	} {
		if _, err := Exchange(bg, http.MethodPost, tc.target, []byte("q"), tc.requester, tc.etag); err == nil {
			t.Errorf("target %q, requester %q, tag %q: sent", tc.target, tc.requester, tc.etag)
		}
	}
	if _, err := Exchange(bg, http.MethodPost, srv.URL+"/query", []byte("q"), "dr-lee", ""); err != nil {
		t.Fatal(err)
	}
	if r, d := requests.Load(), dials.Load(); r != 1 || d != 1 {
		t.Errorf("the peer saw %d requests on %d connections, want only the valid one", r, d)
	}
}

// Concurrent callers share the pool: each reads its own answer, and no
// more than maxIdlePerHost connections stay idle. Run under -race.
func TestExchangeConcurrentCallers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		SetXMLContentType(w.Header())
		fmt.Fprintf(w, "<echo requester=%q>%s</echo>", r.Header.Get("X-Requester"), body)
	}))
	defer srv.Close()
	const callers, calls = 40, 25
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				req := fmt.Sprintf("r%d", i)
				body := fmt.Sprintf("q%d-%d", i, j)
				r, err := Exchange(bg, http.MethodPost, srv.URL+"/query", []byte(body), req, "")
				want := fmt.Sprintf("<echo requester=%q>%s</echo>", req, body)
				if err != nil || string(r.Body) != want || r.ContentType != "application/xml" {
					t.Errorf("caller %d call %d: %q %q, %v", i, j, r.Body, r.ContentType, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := idleTo(srv.URL); n < 1 || n > maxIdlePerHost {
		t.Errorf("%d idle connections after %d callers, want 1..%d", n, callers, maxIdlePerHost)
	}
}

// exponentiateByteBound caps the bytes one Client.PSIExponentiate of a
// 500-element x25519 column allocates over HTTP, client and server side,
// both in this process. It is the call a cold overlap round makes (a warm
// round revalidates and sends no envelope); the responder has answered
// the column before, so its per-element memo answers and what is left is
// mostly the hop's. Measured ~152 kB, against ~176–184 kB when the client
// cloned the encoded envelope for each request and net/http's Transport
// carried it. With a column the responder has never seen both sides read
// ~130 kB more, spread too widely to pin the difference.
const exponentiateByteBound = 165 << 10

func TestPSIExponentiateOverHTTPBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the exchange's buffer pools drop Puts under the race detector")
	}
	l, err := NewLocal(benchSource(t, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(l))
	defer srv.Close()
	c := NewClient(srv.URL, "bench")
	col := peerColumn(t, psi.SuiteNameX25519, 500)
	if _, err := c.PSIExponentiate(bg, col); err != nil { // the party, its memo, the connection
		t.Fatal(err)
	}
	// No collection runs mid-measure: one would empty the sync.Pools
	// whose buffers the next call then allocates again.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := c.PSIExponentiate(bg, col); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > exponentiateByteBound {
		t.Errorf("Client.PSIExponentiate over HTTP: %d B, want <= %d", got, exponentiateByteBound)
	}
}

// A released body's buffer is read into by a later exchange, so nothing
// may alias it once released (DESIGN.md §15): a tree parsed from it
// keeps its text when the buffer is written over and when the next
// answers are read, and those answers read whole.
func TestReleasedBodyAliasesNothing(t *testing.T) {
	answers := []string{`<answer source="a"><result><row v="one"/></result></answer>`, `<other k="two">` + strings.Repeat("x", 40) + `</other>`}
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SetXMLContentType(w.Header())
		_, _ = io.WriteString(w, answers[n.Add(1)%2])
	}))
	t.Cleanup(srv.Close)
	exchange := func(want string) Reply {
		t.Helper()
		r, err := Exchange(bg, http.MethodGet, srv.URL, nil, "", "")
		if err != nil || string(r.Body) != want {
			t.Fatalf("exchange: %q, %v; want %q", r.Body, err, want)
		}
		return r
	}
	r := exchange(answers[1])
	tree, err := xmltree.ParseBytes(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := r.Body
	r.Release()
	if r.Body != nil {
		t.Error("a released Reply still holds its body")
	}
	for i := range body {
		body[i] = '?'
	}
	for i := 0; i < 8; i++ {
		next := exchange(answers[i%2])
		next.Release()
	}
	if tree.Name != "other" || tree.Attrs["k"] != "two" || tree.Text != strings.Repeat("x", 40) {
		t.Errorf("the parsed tree changed with its released body: %s", tree)
	}
}

// BenchmarkExchange is one internal exchange against a net/http handler,
// client and server side: a router-shaped POST /query answered with a
// 300-byte Content-Length body, the same POST under a context that can be
// cancelled (as every hop's is), and a conditional POST answered 304.
// Each reply's body is released, as the tier's callers release theirs.
func BenchmarkExchange(b *testing.B) {
	answer := bytes.Repeat([]byte("x"), 300)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.Header.Get("If-None-Match") == `"tag"` {
			w.Header().Set("ETag", `"tag"`)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		SetXMLContentType(w.Header())
		_, _ = w.Write(answer)
	}))
	b.Cleanup(srv.Close)
	query := []byte(benchFig1a)
	if _, err := Exchange(bg, http.MethodPost, srv.URL+"/query", query, "dr-bench", ""); err != nil {
		b.Fatal(err) // dial once, so even one iteration reads a pooled exchange
	}
	cancellable, cancel := context.WithCancel(bg)
	defer cancel()
	for _, bc := range []struct {
		name, etag string
		ctx        context.Context
		status     int
	}{
		{"post", "", bg, http.StatusOK},
		{"cancellable", "", cancellable, http.StatusOK},
		{"not-modified", `"tag"`, bg, http.StatusNotModified},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Exchange(bc.ctx, http.MethodPost, srv.URL+"/query", query, "dr-bench", bc.etag)
				if err != nil || r.Status != bc.status {
					b.Fatalf("%d, %v", r.Status, err)
				}
				r.Release()
			}
		})
	}
}
