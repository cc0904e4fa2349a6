package source

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"privateiye/internal/refusal"
	"privateiye/internal/xmltree"
)

func TestHTTPErrorRetryClassification(t *testing.T) {
	cases := []struct {
		status    int
		retryable bool
	}{
		{http.StatusInternalServerError, true},
		{http.StatusBadGateway, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusNotImplemented, true},
		// A 4xx is the node's answer: asking again gets it again.
		{http.StatusTooManyRequests, false},
		{http.StatusForbidden, false},
		{http.StatusBadRequest, false},
	}
	for _, c := range cases {
		e := &HTTPError{Source: "s", Status: c.status}
		if e.Retryable() != c.retryable {
			t.Errorf("status %d: Retryable = %v, want %v", c.status, e.Retryable(), c.retryable)
		}
	}
}

func TestClientSurfacesNotOwnerReason(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "mediator: shard shard-b is not the owner of requester alice (owner shard-a)", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "busy")
	_, err := c.Query(context.Background(), "FOR $p IN //x RETURN $p", "alice")
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a 503 HTTPError", err)
	}
	// The reason survives the wire: only the message crossed.
	if got := refusal.Classify(err); got != refusal.NotOwner {
		t.Fatalf("Classify = %v", got)
	}
}

// A POST /query body past MaxQueryBytes is refused with 413. It used to
// be cut at the limit and its prefix parsed, so a valid query padded past
// the limit was answered.
func TestQueryBodyLimit(t *testing.T) {
	local, err := NewLocal(hospitalSource(t), []byte("salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()

	const query = "FOR //patients/row RETURN //age PURPOSE research MAXLOSS 1"
	for _, tc := range []struct {
		name string
		size int
		want int
	}{
		{"plain", len(query), http.StatusOK},
		{"padded to the limit", MaxQueryBytes, http.StatusOK},
		{"padded one past the limit", MaxQueryBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		body := query + strings.Repeat(" ", tc.size-len(query))
		req, err := http.NewRequest(http.MethodPost, server.URL+"/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Requester", "alice")
		resp, err := server.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (%d bytes): status %d, want %d", tc.name, tc.size, resp.StatusCode, tc.want)
		}
	}
}

// WriteNode's framing: a known length, one body, no chunking.
func TestWriteNodeSetsContentLength(t *testing.T) {
	n := xmltree.NewElem("a").Append(xmltree.NewText("b", strings.Repeat("x", 8000)))
	rec := httptest.NewRecorder()
	WriteNode(rec, n)
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(len(n.String())); got != want {
		t.Errorf("Content-Length = %q, want %s", got, want)
	}
	if rec.Body.String() != n.String() || rec.Header().Get("Content-Type") != "application/xml" {
		t.Errorf("body or content type wrong")
	}
}

// An exchange whose context has no deadline runs under exchangeCeiling
// until its body is closed; one with a deadline of its own, even past the
// ceiling, is sent under that context as it is.
func TestExchangeDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer srv.Close()

	before := time.Now()
	resp, err := Exchange(context.Background(), http.MethodGet, srv.URL, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	sent := resp.Request.Context()
	deadline, ok := sent.Deadline()
	if !ok || deadline.Before(before.Add(exchangeCeiling)) || deadline.After(time.Now().Add(exchangeCeiling)) {
		t.Errorf("no-deadline exchange: deadline %v (set %v), want %v from the call", time.Until(deadline), ok, exchangeCeiling)
	}
	if sent.Err() != nil {
		t.Fatalf("ceiling released before the body was closed: %v", sent.Err())
	}
	resp.Body.Close()
	if sent.Err() != context.Canceled {
		t.Errorf("ceiling not released when the body was closed: %v", sent.Err())
	}

	own, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	resp, err = Exchange(own, http.MethodGet, srv.URL, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Request.Context() != own {
		t.Error("an exchange with its own deadline was sent under another context")
	}
}
