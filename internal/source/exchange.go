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
	"net/http/httputil"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The tier's internal hops (mediator → source, router → shard) speak
// HTTP/1.1 through this one client (DESIGN.md §8, Transport): each
// exchange runs on its caller's goroutine over a bare pooled connection,
// and puts on the wire the bytes net/http's Transport wrote for it.

const (
	// exchangeCeiling bounds an exchange whose context has no deadline, as
	// a last line of defence; per-call deadlines come from the caller (the
	// mediator's fan-out deadline, the router's retry policy).
	exchangeCeiling = 30 * time.Second
	// maxIdlePerHost is the mediator's realistic concurrency toward one
	// peer: with fewer idle connections kept, a query stream re-dials.
	maxIdlePerHost = 32
	idleTimeout    = 90 * time.Second
	maxHeaderBytes = 64 << 10 // an answer's status line and headers
	// MaxAnswerBytes bounds an answer body read over an internal hop.
	MaxAnswerBytes = 16 << 20
)

// ErrAnswerTooLarge is an answer whose body is over MaxAnswerBytes. It is
// refused, never read as its prefix.
var ErrAnswerTooLarge = fmt.Errorf("answer over %d bytes", MaxAnswerBytes)

// Reply is a peer's answer to one exchange: its status, the two headers a
// caller reads, and its whole body.
type Reply struct {
	Status      int
	ETag        string
	ContentType string
	Body        []byte

	buf *[]byte // the pooled buffer Body was read into, for Release
}

// Release hands the body's buffer back for a later exchange to read
// into. Neither Body nor anything that aliases it may be read after
// Release; a Reply that is never released is left to the collector.
func (r *Reply) Release() {
	if r.buf == nil {
		return
	}
	if cap(r.Body) <= maxPooledBody {
		*r.buf = r.Body[:0]
		bodies.Put(r.buf)
	}
	r.Body, r.buf = nil, nil
}

// bodies are the answer bodies' buffers (Reply.Release). One over
// maxPooledBody is not pooled again, so one large answer does not stay
// allocated for the process's lifetime.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// Exchange is one request of the tier's internal hops. It carries Host,
// Content-Length unless it is a bodiless GET, and If-None-Match and
// X-Requester when they are set, nothing else; a value holding a control
// byte, or a scheme other than http, is refused before anything is
// written. The peer is dialled directly, never through a proxy, and its
// answer is returned as sent: a 3xx is not followed. The deadline set on
// the connection is ctx's, or exchangeCeiling when it has none; a ctx
// that ends fails the exchange at once with an error wrapping ctx.Err().
// A request that fails on a pooled connection before any byte of the
// answer arrives (the peer closed it while idle) is sent once more on a
// fresh one; every other failure is the call's. body is only read, and
// not after Exchange returns.
func Exchange(ctx context.Context, method, target string, body []byte, requester, etag string) (Reply, error) {
	x := exchange{method: method, target: target, body: body, requester: requester, etag: etag}
	var err error
	x.host, x.uri, err = splitTarget(target)
	if err == nil && (!validHeaderValue(requester) || !validHeaderValue(etag)) {
		err = errors.New("invalid header field value")
	}
	if err != nil || ctx.Err() != nil {
		return Reply{}, x.fail(ctx, err)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(exchangeCeiling)
	}
	for fresh := false; ; fresh = true {
		c, reused, err := conns.get(ctx, x.host, fresh, deadline)
		if err != nil {
			return Reply{}, x.fail(ctx, err)
		}
		r, answered, reusable, err := x.roundTrip(ctx, c, deadline)
		if err == nil && reusable {
			conns.put(x.host, c)
		} else {
			c.Close()
		}
		if err == nil {
			return r, nil
		}
		if !reused || answered || ctx.Err() != nil || isTimeout(err) {
			return Reply{}, x.fail(ctx, err)
		}
	}
}

// exchange is one call's request.
type exchange struct {
	method, target, host, uri string
	body                      []byte
	requester, etag           string
}

var (
	readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4<<10) }}
	writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 4<<10) }}
	// expired is a deadline already past: setting it fails every pending
	// and later read or write on the connection at once.
	expired = time.Unix(1, 0)
)

// roundTrip sends the request on c and reads the answer. answered reports
// that a byte of the answer arrived; reusable, that c ends exactly where
// the answer does and may serve another exchange.
func (x *exchange) roundTrip(ctx context.Context, c net.Conn, deadline time.Time) (r Reply, answered, reusable bool, err error) {
	if err = c.SetDeadline(deadline); err != nil {
		return r, false, false, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = c.SetDeadline(expired) })
		defer func() {
			if !stop() {
				reusable = false
			}
		}()
	}
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(c)
	x.write(bw)
	err = bw.Flush()
	bw.Reset(nil)
	writers.Put(bw)
	if err != nil {
		return r, false, false, err
	}
	br := readers.Get().(*bufio.Reader)
	br.Reset(c)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	if _, err = br.Peek(1); err != nil {
		return r, false, false, err
	}
	r, reusable, err = readReply(br, x.etag)
	return r, true, reusable, err
}

// write writes the request as net/http's Transport wrote it: Host, then
// Content-Length, then the other headers in sorted order.
func (x *exchange) write(bw *bufio.Writer) {
	bw.WriteString(x.method)
	bw.WriteByte(' ')
	bw.WriteString(x.uri)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(x.host)
	if len(x.body) > 0 || x.method != http.MethodGet {
		bw.WriteString("\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(x.body)), 10))
	}
	if x.etag != "" {
		bw.WriteString("\r\nIf-None-Match: ")
		bw.WriteString(x.etag)
	}
	if x.requester != "" {
		bw.WriteString("\r\nX-Requester: ")
		bw.WriteString(x.requester)
	}
	bw.WriteString("\r\n\r\n")
	bw.Write(x.body)
}

// fail words a failed exchange. An ended context is the cause whatever
// the connection reported, and an expired deadline (the caller's, or the
// ceiling's) reads as context.DeadlineExceeded, as a context's would.
func (x *exchange) fail(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	} else if isTimeout(err) {
		err = context.DeadlineExceeded
	}
	return fmt.Errorf("%s %q: %w", x.method, x.target, err)
}

func isTimeout(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded)
}

// readReply reads one answer off br. reusable reports that the peer keeps
// the connection open and sent nothing past the answer.
func readReply(br *bufio.Reader, sentTag string) (r Reply, reusable bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return r, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) || (len(line) > 12 && line[12] != ' ') {
		return r, false, fmt.Errorf("malformed status line %q", line)
	}
	if r.Status, err = strconv.Atoi(string(line[9:12])); err != nil || r.Status < 200 {
		return r, false, fmt.Errorf("malformed or informational status line %q", line)
	}
	length, chunked, keepAlive := int64(-1), false, true
	for size := len(line); ; size += len(line) {
		if line, err = readLine(br); err != nil || len(line) == 0 {
			break
		}
		i := bytes.IndexByte(line, ':')
		if i <= 0 || bytes.ContainsAny(line[:i], " \t") || size > maxHeaderBytes {
			return r, false, fmt.Errorf("malformed header line %q", line)
		}
		name, value := line[:i], bytes.Trim(line[i+1:], " \t")
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, perr := strconv.ParseUint(string(value), 10, 63)
			if perr != nil || (length >= 0 && int64(n) != length) {
				return r, false, fmt.Errorf("bad Content-Length %q", value)
			}
			length = int64(n)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			if chunked = bytes.EqualFold(value, []byte("chunked")); !chunked {
				return r, false, fmt.Errorf("unsupported Transfer-Encoding %q", value)
			}
		case bytes.EqualFold(name, []byte("ETag")):
			// The tag of a 304 is the one sent: kept without a copy.
			if r.ETag = sentTag; string(value) != sentTag {
				r.ETag = string(value)
			}
		case bytes.EqualFold(name, []byte("Content-Type")):
			if r.ContentType = "application/xml"; string(value) != r.ContentType {
				r.ContentType = string(value)
			}
		case bytes.EqualFold(name, []byte("Connection")):
			keepAlive = !bytes.EqualFold(value, []byte("close"))
		}
	}
	switch {
	case err != nil:
	case r.Status == http.StatusNoContent || r.Status == http.StatusNotModified:
	case chunked && length >= 0:
		err = errors.New("both Content-Length and chunked framing")
	case chunked:
		r.buf = bodies.Get().(*[]byte)
		body := bytes.NewBuffer((*r.buf)[:0])
		_, err = body.ReadFrom(io.LimitReader(httputil.NewChunkedReader(br), MaxAnswerBytes+1))
		r.Body = body.Bytes()
		if err == nil && len(r.Body) > MaxAnswerBytes {
			err = ErrAnswerTooLarge
		}
		for err == nil { // the trailer section, up to its empty line
			if line, err = readLine(br); len(line) == 0 {
				break
			}
		}
	case length < 0:
		err = errors.New("answer framed by neither Content-Length nor chunked")
	case length > MaxAnswerBytes:
		err = ErrAnswerTooLarge
	default:
		r.buf = bodies.Get().(*[]byte)
		r.Body = slices.Grow((*r.buf)[:0], int(length))[:length]
		_, err = io.ReadFull(br, r.Body)
	}
	return r, err == nil && keepAlive && br.Buffered() == 0, err
}

// readLine reads one line, without its CRLF or LF.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil { // bufio.ErrBufferFull: a line over 4 kB
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

// splitTarget splits an http:// URL into its host and request URI.
func splitTarget(target string) (host, uri string, err error) {
	rest, ok := strings.CutPrefix(target, "http://")
	if !ok {
		return "", "", errors.New("unsupported protocol scheme")
	}
	host, uri = rest, "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, uri = rest[:i], rest[i:]
	}
	if host == "" || strings.ContainsAny(host, "@?#") || strings.ContainsFunc(target, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
		return "", "", errors.New("malformed target")
	}
	return host, uri, nil
}

// validHeaderValue refuses what net/http refuses in a field value: a
// control byte other than tab.
func validHeaderValue(v string) bool {
	return !strings.ContainsFunc(v, func(r rune) bool { return (r < ' ' && r != '\t') || r == 0x7f })
}

// connPool keeps idle connections per peer, in the order they went idle:
// get takes the newest, and sweep closes each once it has been idle for
// idleTimeout. An idle connection holds no buffer.
type connPool struct {
	mu    sync.Mutex
	idle  map[string][]idleConn
	armed bool // a sweep is due
}

type idleConn struct {
	c     net.Conn
	since time.Time
}

var conns = connPool{idle: map[string][]idleConn{}}

// get returns an idle connection to host, or dials one when none is idle
// or fresh is set; reused reports which.
func (p *connPool) get(ctx context.Context, host string, fresh bool, deadline time.Time) (c net.Conn, reused bool, err error) {
	p.mu.Lock()
	if list := p.idle[host]; !fresh && len(list) > 0 {
		c = list[len(list)-1].c
		list[len(list)-1] = idleConn{}
		p.idle[host] = list[:len(list)-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	addr := host
	if _, _, err := net.SplitHostPort(host); err != nil {
		addr = net.JoinHostPort(host, "80")
	}
	d := net.Dialer{Deadline: deadline, KeepAlive: 30 * time.Second}
	c, err = d.DialContext(ctx, "tcp", addr)
	return c, false, err
}

// put keeps c for the next exchange with host, or closes it when
// maxIdlePerHost are already idle.
func (p *connPool) put(host string, c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[host]
	if len(list) >= maxIdlePerHost {
		c.Close()
		return
	}
	p.idle[host] = append(list, idleConn{c, time.Now()})
	if !p.armed {
		p.armed = true
		time.AfterFunc(idleTimeout, p.sweep)
	}
}

// sweep closes every connection idle for idleTimeout, and runs again when
// the next one is due.
func (p *connPool) sweep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	now, next := time.Now(), time.Duration(0)
	for host, list := range p.idle {
		n := 0
		for ; n < len(list) && now.Sub(list[n].since) >= idleTimeout; n++ {
			list[n].c.Close()
		}
		kept := list[:copy(list, list[n:])]
		clear(list[len(kept):])
		if p.idle[host] = kept; len(kept) == 0 {
			delete(p.idle, host)
		} else if left := idleTimeout - now.Sub(kept[0].since); next == 0 || left < next {
			next = left
		}
	}
	if p.armed = next > 0; p.armed {
		time.AfterFunc(next, p.sweep)
	}
}
