package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"privateiye/internal/obs"
	"privateiye/internal/schemamatch"
	"privateiye/internal/xmltree"
)

// The HTTP surface makes a source a standalone node (cmd/piye-source):
// NewHandler serves it, and Client reaches it through the tier's own
// HTTP/1.1 client (Exchange, exchange.go). Every payload is the same XML
// that flows in-process, so the mediator treats local and remote sources
// identically.

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
		d, err := l.Describe(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		WriteNode(w, d.toNode())
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

	mux.HandleFunc("GET /psi/blinded", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		field := q.Get("field")
		if field == "" {
			fail(w, http.StatusBadRequest, fmt.Errorf("source: missing field"))
			return
		}
		c, err := l.blindedColumn(r.Context(), field, q.Get("suite"))
		if err != nil {
			// A field or suite the source refuses is its answer, not a fault.
			fail(w, http.StatusForbidden, err)
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
	SetXMLContentType(w.Header())
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
	SetXMLContentType(w.Header())
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.Bytes())))
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}

// xmlContentType is every XML answer's Content-Type value, one slice
// shared by all of them: net/http only reads a header's values, and
// Header().Set would allocate a fresh slice for each answer.
var xmlContentType = []string{"application/xml"}

// SetXMLContentType marks h's answer as application/xml.
func SetXMLContentType(h http.Header) { h["Content-Type"] = xmlContentType }

// MaxQueryBytes bounds a POST /query body. PIQL texts are a few hundred
// bytes; anything near the bound is not a query.
const MaxQueryBytes = 1 << 20

// smallQueryBytes bounds a body ReadQueryBody reads in one exact slice
// by its declared length. Only a bound this small may be trusted to size
// an allocation: a client could declare 1 MiB and send nothing.
const smallQueryBytes = 4 << 10

// ReadQueryBody reads a POST /query body of at most MaxQueryBytes. A
// larger body is refused with 413 — never truncated and parsed as its
// prefix — and any other read failure, a body shorter than its declared
// length included, with 400; ok is false once an error response has been
// written. A body declaring at most smallQueryBytes (a PIQL text is a few
// hundred) is read once into a slice of exactly that length. Shared by
// every daemon that accepts PIQL text (source, mediator, router).
func ReadQueryBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	var err error
	if n := r.ContentLength; n >= 0 && n <= smallQueryBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxQueryBytes))
	}
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
	// queryURL is queryBase + "/query", built again only once BaseURL
	// is no longer queryBase.
	queryBase, queryURL string
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

// call sends one exchange to target, a URL on the node, and parses its
// 200, returned with its entity tag. held is the reply the caller holds
// for it: its tag goes out as If-None-Match and a 304 returns its node;
// to a call that holds nothing a 304 is an HTTPError.
func (c *Client) call(ctx context.Context, method, target string, body []byte, requester string, held heldReply) (*xmltree.Node, string, error) {
	r, err := Exchange(ctx, method, target, body, requester, held.etag)
	if err != nil {
		// Surface a context deadline/cancellation undecorated so the
		// mediator can classify the denial as a timeout.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, "", fmt.Errorf("source %s: %w", c.SourceName, ctxErr)
		}
		return nil, "", fmt.Errorf("source %s: %w", c.SourceName, err)
	}
	if r.Status == http.StatusNotModified && held.node != nil {
		return held.node, "", nil
	}
	if r.Status != http.StatusOK {
		err := &HTTPError{
			Source: c.SourceName,
			Status: r.Status,
			Msg:    strings.TrimSpace(string(r.Body[:min(len(r.Body), 4096)])),
		}
		r.Release()
		return nil, "", err
	}
	// The tree shares nothing with the body, whose buffer goes back to be
	// read into again.
	n, err := xmltree.ParseBytes(r.Body)
	r.Release()
	return n, r.ETag, err
}

// Describe implements Endpoint: one GET /summary.
func (c *Client) Describe(ctx context.Context) (*Description, error) {
	n, _, err := c.call(ctx, http.MethodGet, c.BaseURL+"/summary", nil, "", heldReply{})
	if err != nil {
		return nil, err
	}
	return descriptionFromNode(n), nil
}

// toNode encodes d as GET /summary's body: the summary's own encoding,
// with the profiles and the suite advertisement as two more children.
//
//	<summary><path p="/patients"/>…<profiles>…</profiles><psi-suites>
//	<s>x25519</s><s>modp2048</s></psi-suites></summary>
//
// A reader that knows only summaries (xmltree.SummaryFromNode) reads
// the <path> children and skips the rest.
func (d *Description) toNode() *xmltree.Node {
	root := d.Summary.ToNode()
	suites := xmltree.NewElem("psi-suites")
	for _, s := range d.Suites {
		suites.Append(xmltree.NewText("s", s))
	}
	return root.Append(schemamatch.ProfilesToNode(d.Profiles), suites)
}

// descriptionFromNode decodes toNode's encoding, and what an older
// build's /summary serves: <profiles> that are missing or do not decode
// read as none, with the summary kept, and a missing or empty
// <psi-suites> as no advertisement, which schema refresh holds to
// modp2048.
func descriptionFromNode(n *xmltree.Node) *Description {
	d := &Description{Summary: xmltree.SummaryFromNode(n)}
	if p := n.Child("profiles"); p != nil {
		d.Profiles, _ = schemamatch.ProfilesFromNode(p)
	}
	if s := n.Child("psi-suites"); s != nil {
		for _, c := range s.ChildrenNamed("s") {
			if c.Text != "" {
				d.Suites = append(d.Suites, c.Text)
			}
		}
	}
	return d
}

// conditional sends a call asked by key into slot: when the slot holds a
// tagged reply to the same key, the call sends its tag as If-None-Match,
// and a 304 returns the held node, shared and read-only as Endpoint says.
// Any 200 takes the slot.
func (c *Client) conditional(ctx context.Context, slot slotName, key, method, target string, body []byte, requester string) (*xmltree.Node, error) {
	c.mu.Lock()
	held := c.slots[slot]
	c.mu.Unlock()
	if held.key != key {
		held = heldReply{}
	}
	n, etag, err := c.call(ctx, method, target, body, requester, held)
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
//
// The body is the text's own bytes, not a copy: Exchange only reads it.
func (c *Client) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	return c.conditional(ctx, slotName{route: "query"}, piqlText, http.MethodPost, c.queryTarget(),
		unsafe.Slice(unsafe.StringData(piqlText), len(piqlText)), requester)
}

// queryTarget returns BaseURL's /query URL, built once per BaseURL.
func (c *Client) queryTarget() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queryURL == "" || c.queryBase != c.BaseURL {
		c.queryBase, c.queryURL = c.BaseURL, c.BaseURL+"/query"
	}
	return c.queryURL
}

// PSIBlinded implements Endpoint. The client holds the last column it
// read in each suite, and a GET of the same field revalidates it.
func (c *Client) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	path := "/psi/blinded?field=" + url.QueryEscape(field) + "&suite=" + url.QueryEscape(suite)
	return c.conditional(ctx, slotName{"psi/blinded", suite}, field, http.MethodGet, c.BaseURL+path, nil, "")
}

// PSIExponentiate implements Endpoint. The request body is the pooled
// encoding itself: Exchange has written all of it before it returns.
func (c *Client) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	buf := elems.EncodeBuffer()
	defer buf.Release()
	n, _, err := c.call(ctx, http.MethodPost, c.BaseURL+"/psi/exponentiate", buf.Bytes(), "", heldReply{})
	return n, err
}

// Interface checks.
var (
	_ Endpoint = (*Local)(nil)
	_ Endpoint = (*Client)(nil)
)
