package source

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/schemamatch"
	"privateiye/internal/xmltree"
)

// The HTTP transport makes a source a standalone node (cmd/piye-source).
// Every payload is the same XML that flows in-process, so the mediator
// treats local and remote sources identically.

// NewHandler exposes a Local endpoint over HTTP. Handlers pass the
// request context down, so a client that gives up (or a server shutdown
// drain) cancels the work.
func NewHandler(l *Local) http.Handler {
	mux := http.NewServeMux()

	fail := func(w http.ResponseWriter, code int, err error) {
		http.Error(w, err.Error(), code)
	}

	// /metrics and /debug/trace, when the source was built with a
	// registry or tracer.
	reg, tracer := l.Src.Observability()
	obs.Attach(mux, reg, tracer)
	queryNotModified := reg.Help("piye_source_query_not_modified_total", "Conditional POST /query answered 304: the caller holds the memoised answer.").
		Counter("piye_source_query_not_modified_total", "source", l.Name())

	mux.HandleFunc("GET /summary", func(w http.ResponseWriter, r *http.Request) {
		sum, err := l.FetchSummary(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		WriteNode(w, sum.ToNode())
	})

	mux.HandleFunc("GET /profiles", func(w http.ResponseWriter, r *http.Request) {
		ps, err := l.FetchProfiles(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		WriteNode(w, schemamatch.ProfilesToNode(ps))
	})

	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		body, ok := ReadQueryBody(w, r)
		if !ok {
			return
		}
		requester := r.Header.Get("X-Requester")
		if requester == "" {
			fail(w, http.StatusBadRequest, fmt.Errorf("source: missing X-Requester header"))
			return
		}
		ans, err := l.answer(r.Context(), string(body), requester)
		if err != nil {
			// Policy denials and audit refusals are forbidden, not broken.
			fail(w, http.StatusForbidden, err)
			return
		}
		if ans.kept == nil {
			WriteNode(w, ans.Node)
		} else if writeKept(w, r, ans.kept) {
			queryNotModified.Inc()
		}
	})

	mux.HandleFunc("POST /preferences", func(w http.ResponseWriter, r *http.Request) {
		node, err := readNode(r.Body)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		pol, err := policy.PolicyFromNode(node)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		if err := l.Src.AddPreference(pol); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /psi/suites", func(w http.ResponseWriter, r *http.Request) {
		suites, err := l.PSISuites(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		WriteNode(w, suitesToNode(suites))
	})

	mux.HandleFunc("GET /psi/blinded", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		field := q.Get("field")
		if field == "" {
			fail(w, http.StatusBadRequest, fmt.Errorf("source: missing field"))
			return
		}
		c, err := l.blindedColumn(r.Context(), field, q.Get("suite"))
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		if writeKept(w, r, c) {
			l.columnNotModified(c)
		}
	})

	mux.HandleFunc("POST /psi/exponentiate", func(w http.ResponseWriter, r *http.Request) {
		in, err := readNode(r.Body)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		node, err := l.PSIExponentiate(r.Context(), in)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		WriteNode(w, node)
	})

	// Liveness/readiness: a constructed Local has finished loading its
	// data and replaying any audit WAL, so reachable = ready.
	obs.AttachHealth(mux, nil)

	return mux
}

// writeKept writes a kept reply as its kept bytes, with its entity tag
// when it has one, or answers 304 with no body to a request whose
// If-None-Match is that tag, and reports which. Callers run every check
// the 200 runs first, so a 304 tells only that the bytes the caller
// holds are this request's answer.
func writeKept(w http.ResponseWriter, r *http.Request, k *keptReply) (notModified bool) {
	if k.etag != "" {
		w.Header().Set("ETag", k.etag)
		if r.Header.Get("If-None-Match") == k.etag {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(k.body)))
	_, _ = io.WriteString(w, k.body)
	return false
}

func readNode(r io.Reader) (*xmltree.Node, error) {
	return xmltree.Parse(io.LimitReader(r, 16<<20))
}

// WriteNode sends n as an application/xml body: encoded once into a
// pooled buffer, so the length is known up front (Content-Length instead
// of chunked framing) and the connection sees a single Write. Shared by
// the source and mediator handlers.
func WriteNode(w http.ResponseWriter, n *xmltree.Node) {
	buf := n.EncodeBuffer()
	defer buf.Release()
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.Bytes())))
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}

// MaxQueryBytes bounds a POST /query body. PIQL texts are a few hundred
// bytes; anything near the bound is not a query.
const MaxQueryBytes = 1 << 20

// ReadQueryBody reads a POST /query body of at most MaxQueryBytes. A
// larger body is refused with 413 — never truncated and parsed as its
// prefix — and any other read failure with 400; ok is false once an
// error response has been written. Shared by every daemon that accepts
// PIQL text (source, mediator, router).
func ReadQueryBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxQueryBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return nil, false
	}
	return body, true
}

// transport carries every internal hop of the tier (mediator to source,
// router to shard). The stock http.DefaultTransport keeps only 2 idle
// connections per host (DefaultMaxIdleConnsPerHost), so a mediator
// fanning a query stream out to a handful of source nodes would re-dial
// almost every call; under load that is a three-way handshake (and TLS,
// when terminated upstream) on the hot path. Raising the per-host idle
// pool to the mediator's realistic concurrency reuses connections
// instead. No peer compresses its answers, so no request asks it to.
var transport = newTunedTransport()

func newTunedTransport() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		t = &http.Transport{}
	}
	t = t.Clone() // keep proxy/dialer defaults; never mutate the global
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	t.DisableCompression = true
	return t
}

// exchangeCeiling bounds an exchange whose context has no deadline of
// its own, as a last line of defence; per-call deadlines come from the
// caller's context (the mediator's per-source deadline, the router's
// retry policy).
const exchangeCeiling = 30 * time.Second

// noUserAgent, present and empty, keeps net/http from sending its
// default User-Agent.
var noUserAgent = []string{""}

// Exchange is one request of the tier's internal hops, sent straight to
// the shared transport: it carries Host, Content-Length when it has a
// body, and X-Requester and If-None-Match when they are not empty,
// nothing else. The response is returned as the peer sent it: a 3xx is
// not followed, and no cookie is kept. A context with no deadline runs
// under exchangeCeiling until the response body is closed; one with a
// deadline is used as it is.
func Exchange(ctx context.Context, method, target string, body io.Reader, requester, etag string) (*http.Response, error) {
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); !ok {
		ctx, cancel = context.WithTimeout(ctx, exchangeCeiling)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	var resp *http.Response
	if err == nil {
		req.Header["User-Agent"] = noUserAgent
		if requester != "" {
			req.Header["X-Requester"] = []string{requester}
		}
		if etag != "" {
			req.Header["If-None-Match"] = []string{etag}
		}
		resp, err = transport.RoundTrip(req)
	}
	switch {
	case cancel == nil:
	case err != nil:
		cancel()
	default:
		resp.Body = ceilingBody{resp.Body, cancel}
	}
	return resp, err
}

// ceilingBody releases an exchange's ceiling when its body is closed.
type ceilingBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b ceilingBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// HTTPError is a non-200 response from a source node. It implements the
// optional Retryable interface the resilience layer's outcome rule looks
// for: a 5xx, or a 304 to a call that sent no entity tag, is a failure
// and is retried; anything else (policy denials, bad requests, a 429) is
// the node's answer and is never retried.
type HTTPError struct {
	Source string
	Status int
	Msg    string
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("source %s: %d %s: %s", e.Source, e.Status, http.StatusText(e.Status), e.Msg)
}

// Retryable reports whether retrying the call could help.
func (e *HTTPError) Retryable() bool {
	return e.Status >= 500 || e.Status == http.StatusNotModified
}

// Client is an Endpoint over HTTP.
type Client struct {
	// BaseURL is the source node's address, e.g. http://localhost:7101.
	BaseURL string
	// SourceName is the remote source's declared name.
	SourceName string

	mu    sync.Mutex
	slots map[slotName]heldReply // the last reply read per slot
}

// slotName names a Client's slot: one for POST /query, and one per
// suite for GET /psi/blinded.
type slotName struct{ route, suite string }

// heldReply is the last reply a Client read into one slot: the key it
// was asked by (a query text, a field), the entity tag it came with,
// and its node. An untagged reply is held as nothing.
type heldReply struct {
	key, etag string
	node      *xmltree.Node
}

// NewClient returns a client endpoint.
func NewClient(baseURL, sourceName string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), SourceName: sourceName}
}

// Name implements Endpoint.
func (c *Client) Name() string { return c.SourceName }

func (c *Client) getNode(ctx context.Context, path string) (*xmltree.Node, error) {
	n, _, err := c.call(ctx, http.MethodGet, path, nil, "", heldReply{})
	return n, err
}

// call sends one exchange to the node and parses its 200, returned with
// its entity tag. held is the reply the caller holds for it: its tag goes
// out as If-None-Match and a 304 returns its node; to a call that holds
// nothing a 304 is an HTTPError.
func (c *Client) call(ctx context.Context, method, path string, body io.Reader, requester string, held heldReply) (*xmltree.Node, string, error) {
	resp, err := Exchange(ctx, method, c.BaseURL+path, body, requester, held.etag)
	if err != nil {
		// Surface a context deadline/cancellation undecorated so the
		// mediator can classify the denial as a timeout.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, "", fmt.Errorf("source %s: %w", c.SourceName, ctxErr)
		}
		return nil, "", fmt.Errorf("source %s: %w", c.SourceName, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && held.node != nil {
		return held.node, "", nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, "", &HTTPError{
			Source: c.SourceName,
			Status: resp.StatusCode,
			Msg:    strings.TrimSpace(string(msg)),
		}
	}
	n, err := readNode(resp.Body)
	return n, resp.Header.Get("ETag"), err
}

// FetchSummary implements Endpoint.
func (c *Client) FetchSummary(ctx context.Context) (*xmltree.Summary, error) {
	n, err := c.getNode(ctx, "/summary")
	if err != nil {
		return nil, err
	}
	return xmltree.SummaryFromNode(n), nil
}

// FetchProfiles implements Endpoint.
func (c *Client) FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error) {
	n, err := c.getNode(ctx, "/profiles")
	if err != nil {
		return nil, err
	}
	return schemamatch.ProfilesFromNode(n)
}

// conditional sends a call asked by key into slot: when the slot holds a
// tagged reply to the same key, the call sends its tag as If-None-Match,
// and a 304 returns the held node, shared and read-only as Endpoint says.
// Any 200 takes the slot.
func (c *Client) conditional(ctx context.Context, slot slotName, key, method, path string, body io.Reader, requester string) (*xmltree.Node, error) {
	c.mu.Lock()
	held := c.slots[slot]
	c.mu.Unlock()
	if held.key != key {
		held = heldReply{}
	}
	n, etag, err := c.call(ctx, method, path, body, requester, held)
	if err != nil || n == held.node {
		return n, err
	}
	held = heldReply{key: key}
	if etag != "" {
		held.etag, held.node = etag, n
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots == nil {
		c.slots = map[slotName]heldReply{}
	}
	c.slots[slot] = held
	return n, nil
}

// Query implements Endpoint. The client holds the last answer it read,
// and asking the same query text again, for any requester, revalidates
// it: the source decides the 304 after that requester's whole path.
func (c *Client) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	return c.conditional(ctx, slotName{route: "query"}, piqlText,
		http.MethodPost, "/query", strings.NewReader(piqlText), requester)
}

// suitesToNode encodes a suite advertisement:
//
//	<psi-suites><s>x25519</s><s>modp2048</s></psi-suites>
func suitesToNode(suites []string) *xmltree.Node {
	root := xmltree.NewElem("psi-suites")
	for _, s := range suites {
		root.Append(xmltree.NewText("s", s))
	}
	return root
}

// suitesFromNode decodes a suite advertisement.
func suitesFromNode(n *xmltree.Node) ([]string, error) {
	if n.Name != "psi-suites" {
		return nil, fmt.Errorf("source: expected <psi-suites>, got <%s>", n.Name)
	}
	var out []string
	for _, c := range n.ChildrenNamed("s") {
		if c.Text != "" {
			out = append(out, c.Text)
		}
	}
	return out, nil
}

// PSISuites implements Endpoint. Any error, a node without the route
// included, is the caller's to handle: schema refresh holds a source
// that does not answer to modp2048.
func (c *Client) PSISuites(ctx context.Context) ([]string, error) {
	n, err := c.getNode(ctx, "/psi/suites")
	if err != nil {
		return nil, err
	}
	return suitesFromNode(n)
}

// PSIBlinded implements Endpoint. The client holds the last column it
// read in each suite, and a GET of the same field revalidates it.
func (c *Client) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	path := "/psi/blinded?field=" + url.QueryEscape(field)
	if suite != "" {
		path += "&suite=" + url.QueryEscape(suite)
	}
	return c.conditional(ctx, slotName{"psi/blinded", suite}, field, http.MethodGet, path, nil, "")
}

// PSIExponentiate implements Endpoint.
func (c *Client) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	// The transport may still be reading the body after the exchange
	// returns (an early response, a cancelled call), so the request gets
	// a copy of its own rather than a view of the pooled buffer.
	buf := elems.EncodeBuffer()
	body := bytes.Clone(buf.Bytes())
	buf.Release()
	n, _, err := c.call(ctx, http.MethodPost, "/psi/exponentiate", bytes.NewReader(body), "", heldReply{})
	return n, err
}

// Interface checks.
var (
	_ Endpoint = (*Local)(nil)
	_ Endpoint = (*Client)(nil)
)
