package httpmsg

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The client side of the wire: one transport for every exchange a SWEB
// deployment makes as a client — a node's internal fetch from a replica
// (the NFS cross-mount stand-in), the live client following a 302,
// introspection scrapes, and the load generator.

// Conn is one client connection with the reader its responses are parsed
// from. RoundTrip hands it out with the response body unread; the caller
// reads the body (ReadBody, or Body to stream it) and then returns the
// connection with Park or spends it with Close.
type Conn struct {
	nc   net.Conn
	br   *bufio.Reader
	addr string
	pool *Pool
	// Reused reports whether the exchange rode a parked connection, and
	// FirstByte is when its response's first byte arrived. Both describe
	// the latest exchange and are stable until the Conn is parked.
	Reused    bool
	FirstByte time.Time
}

// Close spends the connection.
func (c *Conn) Close() { _ = c.nc.Close() }

// Park returns the connection to its pool for the next exchange with the
// same address. Park only a connection whose response body was consumed
// exactly and whose server kept it open.
func (c *Conn) Park() { c.pool.park(c) }

// Body returns a reader over the response body waiting on c — chunked,
// Content-Length, or running to EOF — and the body size, -1 when the
// framing does not announce one.
func (c *Conn) Body(resp *Response) (io.Reader, int64, error) { return framedBody(c.br, resp) }

// ReadBody reads resp's whole body into resp.Body (at most limit bytes
// when limit > 0), then parks the connection when the framing left it at
// the next response and the server kept it open, and closes it otherwise.
func (c *Conn) ReadBody(resp *Response, limit int64) error {
	err := readBody(c.br, resp, limit)
	if err == nil && resp.KeepAlive() && resp.SelfDelimited() {
		c.Park()
	} else {
		c.Close()
	}
	return err
}

// exchange writes req and parses the response header.
func (c *Conn) exchange(req *Request, timeout time.Duration) (*Response, error) {
	_ = c.nc.SetDeadline(time.Now().Add(timeout))
	if err := req.Write(c.nc); err != nil {
		return nil, err
	}
	// Peek blocks until the first response byte is readable — the honest
	// client-side TTFB instant — without consuming it from the parser.
	if _, err := c.br.Peek(1); err != nil {
		return nil, err
	}
	c.FirstByte = time.Now()
	return ReadResponseHeader(c.br)
}

// Pool keeps idle client connections per address in a LIFO stack (the
// most recently used socket is the least likely to have been reaped), at
// most perAddr of them; a park beyond that closes the surplus. A pool
// with perAddr 0 is one-shot: it parks nothing.
type Pool struct {
	dial    func(addr string) (net.Conn, error)
	perAddr int

	mu     sync.Mutex
	idle   map[string][]*Conn
	closed bool
}

// NewPool builds a pool parking at most perAddr idle connections per
// address and opening new ones with dial.
func NewPool(perAddr int, dial func(addr string) (net.Conn, error)) *Pool {
	return &Pool{dial: dial, perAddr: perAddr, idle: make(map[string][]*Conn)}
}

// Dialer is the plain TCP dial func, bounded by timeout.
func Dialer(timeout time.Duration) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
}

func (p *Pool) get(addr string) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[addr]
	if len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	p.idle[addr] = list[:len(list)-1]
	return c
}

func (p *Pool) park(c *Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle[c.addr]) >= p.perAddr {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle[c.addr] = append(p.idle[c.addr], c)
	p.mu.Unlock()
}

// Close closes every parked connection and refuses further parks. The
// pool still serves exchanges; each one just dials fresh.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, list := range p.idle {
		for _, c := range list {
			c.Close()
		}
		delete(p.idle, addr)
	}
}

// RoundTrip writes req to addr and parses the response header, leaving
// the body unread on the returned connection. A parked connection is
// tried first; when the exchange fails on it (the server may have reaped
// it while idle), one fresh dial retries before the error propagates.
// timeout is the deadline of the whole exchange, body reads included.
func (p *Pool) RoundTrip(addr string, req *Request, timeout time.Duration) (*Conn, *Response, error) {
	if c := p.get(addr); c != nil {
		if resp, err := c.exchange(req, timeout); err == nil {
			c.Reused = true
			return c, resp, nil
		}
		c.Close()
	}
	nc, err := p.dial(addr)
	if err != nil {
		return nil, nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReader(nc), addr: addr, pool: p}
	resp, err := c.exchange(req, timeout)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, resp, nil
}

// Do is the one-shot form: one exchange on a fresh connection, closed
// once the whole body is read.
func Do(addr string, req *Request, timeout time.Duration, limit int64) (*Response, error) {
	c, resp, err := NewPool(0, Dialer(timeout)).RoundTrip(addr, req, timeout)
	if err != nil {
		return nil, err
	}
	if err := c.ReadBody(resp, limit); err != nil {
		return nil, err
	}
	return resp, nil
}

// Fetch is the outcome of a redirect-following Get.
type Fetch struct {
	*Response            // the final response, body read
	Addr       string    // the address that answered it
	Redirected bool      // at least one 302 was followed
	FirstByte  time.Time // first response byte of the final hop
}

// maxHops bounds a redirect-following Get, as 1996 browsers did; SWEB
// itself redirects a request at most once.
const maxHops = 4

// Get fetches target from addr, following 302s to the Location each one
// names. keepAlive selects persistent HTTP/1.1 requests; otherwise each
// request is plain HTTP/1.0, which the server answers with Connection:
// close. Any final status is a result, not an error.
func (p *Pool) Get(addr, target string, keepAlive bool, timeout time.Duration, limit int64) (*Fetch, error) {
	for hop := 0; hop < maxHops; hop++ {
		c, resp, err := p.RoundTrip(addr, NewRequest("GET", target, keepAlive), timeout)
		if err != nil {
			return nil, err
		}
		first := c.FirstByte
		if err := c.ReadBody(resp, limit); err != nil {
			return nil, err
		}
		if resp.StatusCode != StatusMovedTemporarily {
			return &Fetch{Response: resp, Addr: addr, Redirected: hop > 0, FirstByte: first}, nil
		}
		loc := resp.Header.Get("Location")
		var ok bool
		if addr, target, ok = SplitLocation(loc); !ok {
			return nil, fmt.Errorf("httpmsg: bad Location %q", loc)
		}
	}
	return nil, fmt.Errorf("httpmsg: too many redirects for %s", target)
}

// NewRequest builds a client request for a "path?query" target. The path
// is percent-decoded the way the server's parser decodes it (a redirect
// Location arrives escaped; Write re-escapes it on the wire) and kept as
// given when it does not decode. keepAlive selects a persistent HTTP/1.1
// request; otherwise it is plain HTTP/1.0.
func NewRequest(method, target string, keepAlive bool) *Request {
	path, query, _ := strings.Cut(target, "?")
	if dp, err := decodePath(path); err == nil {
		path = dp
	}
	req := &Request{Method: method, Path: path, Query: query, Header: Header{}}
	if keepAlive {
		req.Proto = "HTTP/1.1"
		req.Header.Set("Connection", "keep-alive")
	}
	return req
}

// SplitLocation turns "http://host:port/path?q" into the address and the
// request target; ok is false for anything but an http URL.
func SplitLocation(loc string) (addr, target string, ok bool) {
	rest, ok := strings.CutPrefix(loc, "http://")
	if !ok {
		return "", "", false
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return rest, "/", true
	}
	return rest[:slash], rest[slash:], true
}

// framedBody is the one decision on body framing: the reader over resp's
// body as framed on br, and its size (-1 when not announced).
func framedBody(br *bufio.Reader, resp *Response) (io.Reader, int64, error) {
	if resp.Chunked() {
		return NewChunkedReader(br), -1, nil
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(strings.TrimSpace(cl), 10, 64)
		if err != nil || n < 0 {
			return nil, 0, parseErrf("bad Content-Length %q", cl)
		}
		return io.LimitReader(br, n), n, nil
	}
	return br, -1, nil
}

// readBody reads resp's whole body into resp.Body, bounded by limit bytes
// when limit > 0.
func readBody(br *bufio.Reader, resp *Response, limit int64) error {
	r, n, err := framedBody(br, resp)
	if err != nil {
		return err
	}
	if n >= 0 {
		if limit > 0 && n > limit {
			return parseErrf("response body of %d bytes exceeds limit", n)
		}
		resp.Body = make([]byte, n)
		if _, err := io.ReadFull(r, resp.Body); err != nil {
			return parseErrf("short response body: %v", err)
		}
		return nil
	}
	if limit > 0 {
		r = io.LimitReader(r, limit+1)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return parseErrf("response body: %v", err)
	}
	if limit > 0 && int64(len(body)) > limit {
		return parseErrf("response body exceeds limit")
	}
	resp.Body = body
	return nil
}
