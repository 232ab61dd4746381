package httpmsg

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// reply is how the test server answers one request: the raw response it
// writes and whether it keeps the connection open afterwards.
type reply func(req *Request) (raw string, keep bool)

// okKeepAlive answers a 200 the client may reuse the connection after.
func okKeepAlive(*Request) (string, bool) {
	return "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", true
}

// startServer runs a keep-alive test server on loopback that answers
// every request with respond, and counts the connections it accepted.
func startServer(t *testing.T, respond reply) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = new(atomic.Int64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := ReadRequest(br)
					if err != nil {
						return
					}
					raw, keep := respond(req)
					if _, err := c.Write([]byte(raw)); err != nil || !keep {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// countingDialer is Dialer(time.Second) that counts its dials.
func countingDialer(dials *atomic.Int64) func(string) (net.Conn, error) {
	dial := Dialer(time.Second)
	return func(addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(addr)
	}
}

// idleCount reports how many connections the pool has parked for addr.
func (p *Pool) idleCount(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// spent reports whether c has been closed.
func spent(c *Conn) bool {
	_, err := c.nc.Write([]byte("x"))
	return err != nil
}

func get(t *testing.T, p *Pool, addr string) *Conn {
	t.Helper()
	c, resp, err := p.RoundTrip(addr, NewRequest("GET", "/doc", true), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReadBody(resp, 0); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPoolReusesParkedConnection(t *testing.T) {
	addr, accepted := startServer(t, okKeepAlive)
	var dials atomic.Int64
	p := NewPool(4, countingDialer(&dials))
	defer p.Close()
	for i := 0; i < 3; i++ {
		c := get(t, p, addr)
		if c.Reused != (i > 0) {
			t.Fatalf("exchange %d: reused = %v", i, c.Reused)
		}
	}
	if dials.Load() != 1 || accepted.Load() != 1 {
		t.Fatalf("dials = %d, accepted = %d for 3 exchanges, want 1 and 1", dials.Load(), accepted.Load())
	}
	if n := p.idleCount(addr); n != 1 {
		t.Fatalf("parked = %d, want 1", n)
	}
}

// A server that hangs up a connection it promised to keep leaves a stale
// connection in the pool: the next exchange fails on it and retries on
// exactly one fresh dial.
func TestPoolRetriesStaleConnectionOnce(t *testing.T) {
	addr, accepted := startServer(t, func(*Request) (string, bool) {
		raw, _ := okKeepAlive(nil)
		return raw, false // says keep-alive, closes anyway
	})
	var dials atomic.Int64
	p := NewPool(4, countingDialer(&dials))
	defer p.Close()
	get(t, p, addr)
	if n := p.idleCount(addr); n != 1 {
		t.Fatalf("parked = %d after a keep-alive response, want 1", n)
	}
	c := get(t, p, addr)
	if c.Reused {
		t.Fatal("exchange on the stale connection reported reused")
	}
	if dials.Load() != 2 || accepted.Load() != 2 {
		t.Fatalf("dials = %d, accepted = %d, want 2 and 2 (one fresh dial after the stale one)",
			dials.Load(), accepted.Load())
	}
}

// Parks beyond the per-address cap close the surplus connection.
func TestPoolCapClosesSurplus(t *testing.T) {
	addr, _ := startServer(t, okKeepAlive)
	p := NewPool(1, Dialer(time.Second))
	defer p.Close()
	var conns []*Conn
	var resps []*Response
	for i := 0; i < 2; i++ { // two exchanges in flight at once: two dials
		c, resp, err := p.RoundTrip(addr, NewRequest("GET", "/doc", true), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns, resps = append(conns, c), append(resps, resp)
	}
	for i, c := range conns {
		if err := c.ReadBody(resps[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.idleCount(addr); n != 1 {
		t.Fatalf("parked = %d with cap 1, want 1", n)
	}
	if spent(conns[0]) || !spent(conns[1]) {
		t.Fatalf("spent = %v/%v, want the first parked and the surplus closed", spent(conns[0]), spent(conns[1]))
	}
}

// A response that spends its connection — Connection: close, or a body
// that runs to EOF — is never parked.
func TestPoolNeverParksSpentConnections(t *testing.T) {
	cases := map[string]string{
		"connection-close": "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"eof-delimited":    "HTTP/1.1 200 OK\r\n\r\nok",
		"http/1.0":         "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			addr, _ := startServer(t, func(*Request) (string, bool) { return raw, false })
			p := NewPool(4, Dialer(time.Second))
			defer p.Close()
			c := get(t, p, addr)
			if n := p.idleCount(addr); n != 0 {
				t.Fatalf("parked = %d, want 0", n)
			}
			if !spent(c) {
				t.Fatal("connection left open")
			}
		})
	}
}

func TestPoolCloseClosesParkedAndRefusesParks(t *testing.T) {
	addr, accepted := startServer(t, okKeepAlive)
	p := NewPool(4, Dialer(time.Second))
	parked := get(t, p, addr)
	p.Close()
	if !spent(parked) || p.idleCount(addr) != 0 {
		t.Fatal("Close left a parked connection open")
	}
	// The pool still serves, but every exchange dials and nothing parks.
	for i := 0; i < 2; i++ {
		if c := get(t, p, addr); c.Reused || !spent(c) {
			t.Fatalf("exchange %d after Close: reused=%v spent=%v", i, c.Reused, spent(c))
		}
	}
	if accepted.Load() != 3 {
		t.Fatalf("accepted = %d, want 3", accepted.Load())
	}
}

// Get follows a 302 to the address its Location names, with the escaped
// path decoded and the query kept, and stamps the final hop's first byte.
func TestGetFollowsRedirect(t *testing.T) {
	var seen atomic.Value
	target, _ := startServer(t, func(req *Request) (string, bool) {
		seen.Store(req.Path + "?" + req.Query)
		return okKeepAlive(req)
	})
	entry, _ := startServer(t, func(*Request) (string, bool) {
		return "HTTP/1.1 302 Moved Temporarily\r\nLocation: http://" + target +
			"/a%20b.html?swebr=1\r\nContent-Length: 0\r\n\r\n", true
	})
	p := NewPool(1, Dialer(time.Second))
	defer p.Close()
	start := time.Now()
	f, err := p.Get(entry, "/a b.html", true, time.Second, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if f.StatusCode != 200 || string(f.Body) != "ok" || !f.Redirected || f.Addr != target {
		t.Fatalf("fetch = %d %q redirected=%v addr=%s", f.StatusCode, f.Body, f.Redirected, f.Addr)
	}
	if got := seen.Load(); got != "/a b.html?swebr=1" {
		t.Fatalf("target saw %q", got)
	}
	if f.FirstByte.Before(start) {
		t.Fatal("first byte not stamped")
	}
	bad, _ := startServer(t, func(*Request) (string, bool) {
		return "HTTP/1.1 302 Moved Temporarily\r\nLocation: ftp://x/y\r\nContent-Length: 0\r\n\r\n", true
	})
	if _, err := p.Get(bad, "/x", true, time.Second, 0); err == nil || !strings.Contains(err.Error(), "Location") {
		t.Fatalf("non-http Location: err = %v", err)
	}
}

func TestSplitLocation(t *testing.T) {
	addr, path, ok := SplitLocation("http://127.0.0.1:8080/a/b?x=1")
	if !ok || addr != "127.0.0.1:8080" || path != "/a/b?x=1" {
		t.Fatalf("%q %q %v", addr, path, ok)
	}
	if _, _, ok := SplitLocation("ftp://x/y"); ok {
		t.Fatal("non-http location accepted")
	}
	addr, path, ok = SplitLocation("http://hostonly")
	if !ok || addr != "hostonly" || path != "/" {
		t.Fatalf("%q %q %v", addr, path, ok)
	}
}

func TestBodyFraming(t *testing.T) {
	cases := []struct {
		raw  string
		size int64
		body string
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcNEXT", 3, "abc"},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\nNEXT", -1, "abc"},
		{"HTTP/1.0 200 OK\r\n\r\nabc", -1, "abc"},
	}
	for _, c := range cases {
		br := bufio.NewReader(strings.NewReader(c.raw))
		resp, err := ReadResponseHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		r, size, err := framedBody(br, resp)
		if err != nil || size != c.size {
			t.Fatalf("%q: size %d err %v, want %d", c.raw, size, err, c.size)
		}
		got, err := io.ReadAll(r)
		if err != nil || string(got) != c.body {
			t.Fatalf("%q: body %q err %v", c.raw, got, err)
		}
	}
	br := bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"))
	resp, _ := ReadResponseHeader(br)
	if _, _, err := framedBody(br, resp); err == nil {
		t.Fatal("negative Content-Length accepted")
	}
}
