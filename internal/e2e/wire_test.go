package e2e

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// The tier's internal hops carry only what their receivers read
// (DESIGN.md §8, Transport; §15): a request carries Host, Content-Length
// when it has a body, X-Requester and If-None-Match, an envelope has no
// whitespace between its elements, and a 3xx from a peer is its answer,
// never followed. These tests record each hop byte for byte at the
// receiving listener.

// wireLog records every byte a server's connections read and write.
type wireLog struct {
	mu    sync.Mutex
	conns []*tapConn
}

type tapListener struct {
	net.Listener
	log *wireLog
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, log: l.log}
	l.log.mu.Lock()
	l.log.conns = append(l.log.conns, tc)
	l.log.mu.Unlock()
	return tc, nil
}

// tapConn copies what its connection reads and writes; a response is
// recorded before it is sent, so it is whole once the caller has it.
type tapConn struct {
	net.Conn
	log     *wireLog
	in, out bytes.Buffer // guarded by log.mu
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.mu.Lock()
	c.in.Write(p[:n])
	c.log.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.out.Write(p)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// tappedServer serves h on a listener that records its wire.
func tappedServer(t *testing.T, h http.Handler) (*httptest.Server, *wireLog) {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	log := &wireLog{}
	srv.Listener = tapListener{srv.Listener, log}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, log
}

// recorded is one request as it came off the wire and the response to it.
type recorded struct {
	req      *http.Request
	reqBody  []byte
	resp     *http.Response
	respBody []byte
}

// exchanges parses the log into its request and response pairs. Every
// message is framed by its own headers, so a Content-Length that is not
// its body's length fails the parse or leaves bytes over.
func (l *wireLog) exchanges(t *testing.T) []recorded {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []recorded
	for _, c := range l.conns {
		in := bufio.NewReader(bytes.NewReader(c.in.Bytes()))
		back := bufio.NewReader(bytes.NewReader(c.out.Bytes()))
		for {
			if _, err := in.Peek(1); err == io.EOF {
				break
			}
			var x recorded
			var err error
			if x.req, err = http.ReadRequest(in); err == nil {
				x.reqBody, err = io.ReadAll(x.req.Body)
			}
			if err == nil {
				x.resp, err = http.ReadResponse(back, x.req)
			}
			if err == nil {
				x.respBody, err = io.ReadAll(x.resp.Body)
			}
			if err != nil {
				t.Fatalf("recorded exchange %d: %v", len(out), err)
			}
			out = append(out, x)
		}
		if n := back.Buffered(); n > 0 {
			t.Fatalf("%d response bytes past the last response", n)
		}
	}
	return out
}

// interElementSpace is whitespace between two elements.
var interElementSpace = regexp.MustCompile(`>\s+<`)

// checkHop holds every recorded exchange to the internal wire shape.
func checkHop(t *testing.T, hop string, xs []recorded) {
	t.Helper()
	carried := map[string]bool{"Content-Length": true, "X-Requester": true, "If-None-Match": true}
	for _, x := range xs {
		what := hop + " " + x.req.Method + " " + x.req.URL.Path
		for k, v := range x.req.Header {
			if !carried[k] {
				t.Errorf("%s: request carries %s: %q", what, k, v)
			}
		}
		if len(x.req.TransferEncoding) != 0 || x.req.Host == "" {
			t.Errorf("%s: Transfer-Encoding %q, Host %q", what, x.req.TransferEncoding, x.req.Host)
		}
		if cl, has := x.req.Header["Content-Length"]; len(x.reqBody) > 0 && (!has || cl[0] != strconv.Itoa(len(x.reqBody))) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", what, cl, len(x.reqBody))
		}
		if x.resp.StatusCode != http.StatusOK {
			continue
		}
		if cl := x.resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(x.respBody)) {
			t.Errorf("%s: response Content-Length %q for a %d-byte body", what, cl, len(x.respBody))
		}
		if x.resp.Header.Get("Content-Type") == "application/xml" {
			if bytes.ContainsAny(x.respBody, "\n\r\t") || interElementSpace.Match(x.respBody) {
				t.Errorf("%s: envelope has whitespace between elements: %q", what, x.respBody)
			}
			if _, err := xmltree.Parse(bytes.NewReader(x.respBody)); err != nil {
				t.Errorf("%s: envelope does not parse: %v", what, err)
			}
		}
	}
}

// queryExchange is the one recorded POST /query.
func queryExchange(t *testing.T, hop string, xs []recorded) recorded {
	t.Helper()
	var found []recorded
	for _, x := range xs {
		if x.req.Method == http.MethodPost && x.req.URL.Path == "/query" {
			found = append(found, x)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s: %d POST /query recorded, want 1", hop, len(found))
	}
	return found[0]
}

func TestInternalHopWireShape(t *testing.T) {
	nodes := map[string]*httptest.Server{}
	logs := map[string]*wireLog{}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		nodes[name], logs[name] = tappedServer(t, suiteHandler(t, name, nil))
	}
	med := newMediator(t, t.TempDir(), obs.NewRegistry(), obs.NewTracer(8), nodes)
	t.Cleanup(func() { med.Close() })
	shardSrv, shardLog := tappedServer(t, mediator.NewHandler(med))
	// The first readiness probe runs before NewRouter returns; the next
	// is an hour away, so the shard's log holds exactly one probe.
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:      []shard.Backend{{Name: "only", URL: shardSrv.URL}},
		Seed:        shard.DefaultSeed,
		Retry:       resilience.Policy{MaxAttempts: 1, Timeout: 10 * time.Second},
		HealthEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)

	const requester = "dr-wire"
	code, answer := postQuery(t, rtSrv.URL, perTestQuery, requester)
	if code != http.StatusOK {
		t.Fatalf("routed query: %d %s", code, answer)
	}

	// Router to shard: the probe and the query.
	xs := shardLog.exchanges(t)
	checkHop(t, "router→shard", xs)
	q := queryExchange(t, "router→shard", xs)
	if string(q.reqBody) != perTestQuery || q.req.Header.Get("X-Requester") != requester {
		t.Errorf("router→shard: body %q, requester %q", q.reqBody, q.req.Header.Get("X-Requester"))
	}
	if string(q.respBody) != answer {
		t.Errorf("router→shard: the shard's answer was changed on its way back")
	}
	if len(xs) != 2 || xs[0].req.URL.Path != "/readyz" {
		t.Errorf("router→shard: %d exchanges, want the probe then the query", len(xs))
	}

	// Mediator to each source: schema refresh, then the query.
	for name, log := range logs {
		xs := log.exchanges(t)
		checkHop(t, "mediator→"+name, xs)
		q := queryExchange(t, "mediator→"+name, xs)
		if string(q.reqBody) != perTestQuery || q.req.Header.Get("X-Requester") == "" {
			t.Errorf("mediator→%s: body %q, requester %q", name, q.reqBody, q.req.Header.Get("X-Requester"))
		}
		if !bytes.HasPrefix(q.respBody, []byte("<answer")) || q.resp.Header.Get("Content-Type") != "application/xml" {
			t.Errorf("mediator→%s: answer %q", name, q.respBody)
		}
	}
}

// A peer that answers 307 has answered: neither hop re-sends the request
// to the Location it names.
func TestInternalHopsReturnRedirects(t *testing.T) {
	var followed atomic.Int64
	elsewhere := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followed.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(elsewhere.Close)
	moved := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, elsewhere.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	t.Cleanup(moved.Close)

	c := source.NewClient(moved.URL, "moved")
	ctx := context.Background()
	_, qerr := c.Query(ctx, perTestQuery, "dr-moved")
	_, gerr := c.PSISuites(ctx)
	for route, err := range map[string]error{"POST /query": qerr, "GET /psi/suites": gerr} {
		var he *source.HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusTemporaryRedirect {
			t.Errorf("mediator→source %s: %v, want the 307 as an HTTPError", route, err)
		}
	}

	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards: []shard.Backend{{Name: "moved", URL: moved.URL}},
		Seed:   shard.DefaultSeed,
		Retry:  resilience.Policy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)
	if code, body := postQuery(t, rtSrv.URL, perTestQuery, "dr-moved"); code != http.StatusTemporaryRedirect {
		t.Errorf("router→shard: %d %s, want the shard's 307 passed back", code, body)
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("%d requests followed a redirect", n)
	}
}
