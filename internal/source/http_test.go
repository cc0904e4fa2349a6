package source

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

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

// ReadQueryBody reads a small declared body into one exact slice and
// anything else through the MaxQueryBytes bound: a body shorter than its
// declared length is a 400, and a body past the bound a 413 whether its
// length was declared or it came chunked.
func TestReadQueryBody(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, ok := ReadQueryBody(w, r); ok {
			w.Header().Set("X-Length", strconv.FormatInt(r.ContentLength, 10))
			w.Header().Set("X-Cap", strconv.Itoa(cap(body)))
			_, _ = w.Write(body)
		}
	}))
	defer server.Close()

	post := func(t *testing.T, body io.Reader) (*http.Response, string) {
		t.Helper()
		resp, err := server.Client().Post(server.URL, "text/plain", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(got)
	}
	const query = "FOR //patients/row RETURN //age PURPOSE research MAXLOSS 1"
	t.Run("exact small body", func(t *testing.T) {
		resp, got := post(t, strings.NewReader(query))
		if resp.StatusCode != http.StatusOK || got != query || resp.Header.Get("X-Cap") != strconv.Itoa(len(query)) {
			t.Errorf("status %d, body %q, capacity %s", resp.StatusCode, got, resp.Header.Get("X-Cap"))
		}
	})
	t.Run("exact body at the small bound", func(t *testing.T) {
		body := strings.Repeat("x", smallQueryBytes)
		if resp, got := post(t, strings.NewReader(body)); resp.StatusCode != http.StatusOK || got != body || resp.Header.Get("X-Cap") != strconv.Itoa(smallQueryBytes) {
			t.Errorf("status %d, %d bytes back, capacity %s", resp.StatusCode, len(got), resp.Header.Get("X-Cap"))
		}
	})
	t.Run("chunked small body", func(t *testing.T) {
		// A reader of unknown length goes out chunked.
		if resp, got := post(t, io.MultiReader(strings.NewReader(query))); resp.StatusCode != http.StatusOK || got != query || resp.Header.Get("X-Length") != "-1" {
			t.Errorf("status %d, body %q, declared length %s", resp.StatusCode, got, resp.Header.Get("X-Length"))
		}
	})
	t.Run("declared length over the limit", func(t *testing.T) {
		body := strings.Repeat(" ", MaxQueryBytes+1)
		if resp, _ := post(t, strings.NewReader(body)); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("chunked over the limit", func(t *testing.T) {
		body := io.MultiReader(strings.NewReader(strings.Repeat(" ", MaxQueryBytes+1)))
		if resp, _ := post(t, body); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("short body", func(t *testing.T) {
		// The client declares more than it sends and stops writing.
		conn, err := net.Dial("tcp", server.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(query)+10, query); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
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
