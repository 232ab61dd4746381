package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"strconv"
	"time"
)

// The load generator speaks HTTP/1.1 itself instead of going through the
// repository's httpmsg package: the client's parsing must not change when
// the server's does.

// hconn is one keep-alive connection to a node.
type hconn struct {
	c  net.Conn
	br *bufio.Reader
}

// hopSpan is the client's record of one HTTP exchange: when the dial
// began (zero when the connection was reused), when the request write
// began, and when the first and the last response byte arrived.
type hopSpan struct {
	trace       string
	node        int
	dial, write time.Time
	first, last time.Time
}

// outcome is one request's result as the client saw it.
type outcome struct {
	ok     bool
	wrong  bool      // a response arrived but was not the document: wrong output
	reason string    // failure class
	first  time.Time // first byte of the final hop
	end    time.Time
}

// client is one load-generator slot: at most one request in flight, with
// a keep-alive connection per node.
type client struct {
	addrs   []string
	byAddr  map[string]int
	conns   []*hconn
	docs    []doc
	reqBuf  []byte
	spans   []hopSpan // recorded only when tracing
	tracing bool
}

func newClient(addrs []string, docs []doc) *client {
	cl := &client{
		addrs:  addrs,
		byAddr: map[string]int{},
		conns:  make([]*hconn, len(addrs)),
		docs:   docs,
	}
	for i, a := range addrs {
		cl.byAddr[a] = i
	}
	return cl
}

func (cl *client) closeAll() {
	for i, c := range cl.conns {
		if c != nil {
			c.c.Close()
			cl.conns[i] = nil
		}
	}
}

// clientTimeout bounds each dial and each exchange; a request that takes
// longer counts as failed.
const clientTimeout = 10 * time.Second

// errProtocol marks a response the client could not frame.
var errProtocol = errors.New("malformed response")

// fetch requests document d, first at node, following at most one 302
// (the paper's no-ping-pong rule: a second redirect is a loop). A
// non-empty traceID travels as the swebt query parameter, so the
// servers' lifecycle events join the client's spans; pinned adds
// swebr=1, which makes the node serve the document itself.
func (cl *client) fetch(d int, node int, traceID string, pinned bool) outcome {
	want := cl.docs[d]
	target := want.path
	sep := "?"
	if pinned {
		target += "?swebr=1"
		sep = "&"
	}
	if traceID != "" {
		target += sep + "swebt=" + traceID
	}
	var out outcome
	for hop := 0; ; hop++ {
		status, loc, err := cl.exchange(node, target, want, &out, traceID)
		switch {
		case err != nil:
			out.reason = err.Error()
			out.wrong = errors.Is(err, errWrongBody)
			return out
		case status == 200:
			out.ok = true
			return out
		case status == 302 && hop == 0:
			n, path, ok := cl.parseLocation(loc)
			if !ok {
				out.reason, out.wrong = "bad Location "+loc, true
				return out
			}
			node, target = n, path
		case status == 302:
			out.reason, out.wrong = "redirect loop", true
			return out
		default:
			out.reason, out.wrong = "status "+strconv.Itoa(status), true
			return out
		}
	}
}

// errWrongBody marks a complete body whose digest or length is wrong.
var errWrongBody = errors.New("wrong body")

// exchange sends one GET and reads the response. A 200 body is checked
// against want; other bodies are discarded. The connection is dropped on
// any error and after a response carrying Connection: close.
func (cl *client) exchange(node int, target string, want doc, out *outcome, traceID string) (status int, location string, err error) {
	var span hopSpan
	hc := cl.conns[node]
	if hc == nil {
		span.dial = time.Now()
		c, err := net.DialTimeout("tcp", cl.addrs[node], clientTimeout)
		if err != nil {
			return 0, "", fmt.Errorf("dial: %w", err)
		}
		hc = &hconn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
		cl.conns[node] = hc
	}
	drop := func() {
		hc.c.Close()
		cl.conns[node] = nil
	}
	span.write = time.Now()
	_ = hc.c.SetDeadline(span.write.Add(clientTimeout))
	cl.reqBuf = append(cl.reqBuf[:0], "GET "...)
	cl.reqBuf = append(cl.reqBuf, target...)
	cl.reqBuf = append(cl.reqBuf, " HTTP/1.1\r\nHost: "...)
	cl.reqBuf = append(cl.reqBuf, cl.addrs[node]...)
	cl.reqBuf = append(cl.reqBuf, "\r\n\r\n"...)
	if _, err := hc.c.Write(cl.reqBuf); err != nil {
		drop()
		return 0, "", fmt.Errorf("write: %w", err)
	}

	line, err := hc.br.ReadSlice('\n')
	if err != nil {
		drop()
		return 0, "", fmt.Errorf("read status: %w", err)
	}
	span.first = time.Now()
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		drop()
		return 0, "", errProtocol
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		drop()
		return 0, "", errProtocol
	}
	length := int64(-1)
	closeAfter, chunked := false, false
	for {
		line, err = hc.br.ReadSlice('\n')
		if err != nil {
			drop()
			return 0, "", fmt.Errorf("read header: %w", err)
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case asciiEqualFold(k, "content-length"):
			length, _ = strconv.ParseInt(string(v), 10, 64)
		case asciiEqualFold(k, "connection"):
			closeAfter = asciiEqualFold(v, "close")
		case asciiEqualFold(k, "location"):
			location = string(v)
		case asciiEqualFold(k, "transfer-encoding"):
			chunked = asciiEqualFold(v, "chunked")
		}
	}
	var n int64
	var sum uint32
	if chunked {
		n, sum, err = readChunked(hc.br)
	} else if length >= 0 {
		n, sum, err = readN(hc.br, length, 0)
	} else {
		drop()
		return 0, "", errProtocol
	}
	span.last = time.Now()
	if err != nil {
		drop()
		return 0, "", fmt.Errorf("short body: %w", err)
	}
	if closeAfter {
		// Connection: close, including the server's keep-alive cap: the
		// next request redials, which counts as client time.
		drop()
	}
	out.first, out.end = span.first, span.last
	if cl.tracing {
		span.trace, span.node = traceID, node
		cl.spans = append(cl.spans, span)
	}
	if status == 200 && (n != want.size || sum != want.crc) {
		return status, location, fmt.Errorf("%w: %d bytes, crc %08x, want %d bytes, crc %08x",
			errWrongBody, n, sum, want.size, want.crc)
	}
	return status, location, nil
}

// readN consumes exactly n body bytes from br, folding them into the
// running digest sum in place.
func readN(br *bufio.Reader, n int64, sum uint32) (int64, uint32, error) {
	var got int64
	for got < n {
		want := br.Buffered()
		if want == 0 {
			want = 1 // block for more
		}
		if rem := n - got; int64(want) > rem {
			want = int(rem)
		}
		b, err := br.Peek(want)
		if len(b) > 0 {
			sum = crc32.Update(sum, castagnoli, b)
			got += int64(len(b))
			_, _ = br.Discard(len(b))
		}
		if err != nil {
			return got, sum, err
		}
	}
	return got, sum, nil
}

// readChunked consumes a chunked body, digesting it.
func readChunked(br *bufio.Reader) (int64, uint32, error) {
	var got int64
	var sum uint32
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return got, sum, err
		}
		hex, _, _ := bytes.Cut(bytes.TrimSpace(line), []byte(";"))
		size, err := strconv.ParseInt(string(hex), 16, 64)
		if err != nil {
			return got, sum, errProtocol
		}
		if size == 0 {
			// Trailer section ends at an empty line.
			for {
				line, err = br.ReadSlice('\n')
				if err != nil {
					return got, sum, err
				}
				if len(line) <= 2 {
					return got, sum, nil
				}
			}
		}
		var n int64
		n, sum, err = readN(br, size, sum)
		got += n
		if err != nil {
			return got, sum, err
		}
		if _, err := br.Discard(2); err != nil {
			return got, sum, err
		}
	}
}

// parseLocation maps an absolute http:// Location onto a node and the
// path-and-query to request there.
func (cl *client) parseLocation(loc string) (int, string, bool) {
	const scheme = "http://"
	if len(loc) <= len(scheme) || loc[:len(scheme)] != scheme {
		return 0, "", false
	}
	rest := loc[len(scheme):]
	slash := bytes.IndexByte([]byte(rest), '/')
	if slash < 0 {
		return 0, "", false
	}
	node, ok := cl.byAddr[rest[:slash]]
	return node, rest[slash:], ok
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
