package httpd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/retry"
	"sweb/internal/trace"
)

// upstreamIdlePerPeer bounds how many idle internal-fetch connections are
// kept per peer. A relay burst fans out over at most this many sockets and
// reuses them; beyond that, extra connections are spent after one exchange.
const upstreamIdlePerPeer = 4

// upstream is one reusable connection to a peer's HTTP listener, with the
// buffered reader that parses its responses.
type upstream struct {
	conn net.Conn
	br   *bufio.Reader
}

func (u *upstream) Close() { _ = u.conn.Close() }

// upstreamPool keeps idle internal-fetch connections per peer address, so
// a relay burst does not pay a TCP dial per request ("NFS cross-mount"
// traffic rides persistent connections like client traffic does).
type upstreamPool struct {
	mu     sync.Mutex
	idle   map[string][]*upstream
	cap    int
	closed bool
}

func newUpstreamPool(perPeer int) *upstreamPool {
	if perPeer <= 0 {
		perPeer = upstreamIdlePerPeer
	}
	return &upstreamPool{idle: make(map[string][]*upstream), cap: perPeer}
}

// get pops an idle connection to addr, nil when none is parked.
func (p *upstreamPool) get(addr string) *upstream {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[addr]
	if len(list) == 0 {
		return nil
	}
	u := list[len(list)-1]
	p.idle[addr] = list[:len(list)-1]
	return u
}

// put parks a connection for reuse, closing it instead when the per-peer
// cap is reached or the pool is shut down.
func (p *upstreamPool) put(addr string, u *upstream) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= p.cap {
		p.mu.Unlock()
		u.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], u)
	p.mu.Unlock()
}

// closeAll closes every parked connection and refuses new parks.
func (p *upstreamPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, list := range p.idle {
		for _, u := range list {
			u.Close()
		}
		delete(p.idle, addr)
	}
}

// internalRequest builds the node-to-node fetch request: HTTP/1.1 with
// keep-alive so the owner leaves the connection open, the internal marker
// so it is served directly, and optionally the client's If-Modified-Since
// (streamed relays let the owner answer 304) and the originating trace.
func (s *Server) internalRequest(method, path, ims string, tctx trace.TraceID) *httpmsg.Request {
	req := &httpmsg.Request{Method: method, Path: path, Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	req.Header.Set(internalHeader, "1")
	req.Header.Set("Connection", "keep-alive")
	if ims != "" {
		req.Header.Set("If-Modified-Since", ims)
	}
	if tctx != "" {
		req.Header.Set(traceHeader, string(tctx))
	}
	return req
}

// openPeerStream sends one internal request and returns the connection
// with the response header parsed and the body still unread on u.br — the
// shape both the materializing fetch and the streaming relay start from.
// A pooled connection is tried first; if the exchange fails on it (the
// peer may have idle-timed it out), one fresh dial retries before the
// error propagates.
func (s *Server) openPeerStream(peer Peer, req *httpmsg.Request) (*upstream, *httpmsg.Response, error) {
	if u := s.ups.get(peer.HTTPAddr); u != nil {
		if resp, err := roundTripUpstream(u, req); err == nil {
			s.upstreamReused.Add(1)
			return u, resp, nil
		}
		u.Close() // stale pooled connection; fall through to a fresh dial
	}
	if delay := s.cfg.DialDelay; delay != nil {
		if d := delay(); d > 0 {
			time.Sleep(d)
		}
	}
	c, err := net.DialTimeout("tcp", peer.HTTPAddr, s.cfg.FetchTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("dial owner %d: %w", peer.ID, err)
	}
	s.upstreamDials.Add(1)
	u := &upstream{conn: c, br: bufio.NewReader(c)}
	resp, err := roundTripUpstream(u, req)
	if err != nil {
		u.Close()
		return nil, nil, fmt.Errorf("owner %d: %w", peer.ID, err)
	}
	return u, resp, nil
}

// roundTripUpstream writes the request and parses the response header. The
// deadline covers the whole exchange including the body reads that follow.
func roundTripUpstream(u *upstream, req *httpmsg.Request) (*httpmsg.Response, error) {
	_ = u.conn.SetDeadline(time.Now().Add(connTimeout))
	if err := req.Write(u.conn); err != nil {
		return nil, err
	}
	return httpmsg.ReadResponseHeader(u.br)
}

// readUpstreamBody reads the full response body off the upstream reader.
// reusable reports whether the framing left the connection positioned at
// the next response (an EOF-delimited body spends it).
func readUpstreamBody(br *bufio.Reader, resp *httpmsg.Response) (body []byte, reusable bool, err error) {
	if resp.Chunked() {
		body, err = io.ReadAll(httpmsg.NewChunkedReader(br))
		return body, err == nil, err
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		n, perr := strconv.ParseInt(strings.TrimSpace(cl), 10, 64)
		if perr != nil || n < 0 {
			return nil, false, fmt.Errorf("bad Content-Length %q", cl)
		}
		body = make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, false, err
		}
		return body, true, nil
	}
	body, err = io.ReadAll(br)
	return body, false, err
}

// fetchFromPeer performs one internal GET against the owning node over a
// pooled keep-alive connection and materializes the body — the cache-fill
// path. The connection returns to the pool when its framing allows.
func (s *Server) fetchFromPeer(peer Peer, path string, tctx trace.TraceID) (*httpmsg.Response, error) {
	req := s.internalRequest("GET", path, "", tctx)
	u, resp, err := s.openPeerStream(peer, req)
	if err != nil {
		return nil, err
	}
	body, reusable, err := readUpstreamBody(u.br, resp)
	if err != nil {
		u.Close()
		return nil, fmt.Errorf("read from owner %d: %w", peer.ID, err)
	}
	if reusable && resp.KeepAlive() {
		s.ups.put(peer.HTTPAddr, u)
	} else {
		u.Close()
	}
	if resp.StatusCode != httpmsg.StatusOK {
		return nil, fmt.Errorf("owner %d returned %d", peer.ID, resp.StatusCode)
	}
	resp.Body = body
	return resp, nil
}

// fetchSource is one replica candidate for an internal fetch: the node id
// the health view tracks and the peer address to dial.
type fetchSource struct {
	node int
	peer Peer
}

// fetchPolicy builds the retry budget for an internal fetch over the
// given failover list: the per-source attempt count scales with the list
// so every replica gets its full share of tries (R=1 reduces to the
// pre-replication policy exactly), while the time budget stays fixed.
func (s *Server) fetchPolicy(sources int) retry.Policy {
	return retry.Policy{
		MaxAttempts: s.cfg.FetchAttempts * sources,
		BaseDelay:   s.cfg.FetchBackoff,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
		Budget:      connTimeout / 2,
	}
}

// fetchWithRetry runs the materializing internal fetch under the node's
// retry budget, rotating through the failover list — attempt k hits
// sources[(k-1) mod len] — and feeding the loadd health view on every
// outcome, so a dead replica is tried, marked, and routed around.
func (s *Server) fetchWithRetry(sources []fetchSource, path string, tctx trace.TraceID) (*httpmsg.Response, error) {
	s.internalFetch.Add(1)
	var resp *httpmsg.Response
	err := s.fetchPolicy(len(sources)).Do(s.closed, func(attempt int) error {
		src := sources[(attempt-1)%len(sources)]
		r, ferr := s.fetchFromPeer(src.peer, path, tctx)
		if ferr != nil {
			s.table.MarkFailure(src.node)
			return ferr
		}
		s.table.MarkSuccess(src.node)
		s.obs.ReplicaFetch(path, src.node)
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// relayStream pipes a non-cacheable document from a replica straight to
// the client without materializing it: the source's response header is
// parsed, then the body is copied socket-to-socket through a pooled
// buffer. Attempts rotate through the failover list, so a dead source
// sends the next try to the surviving replica. Retries apply only while
// nothing has reached the client; once the first body byte is on the
// wire a dying source can only truncate the transfer (the client sees
// the short body against Content-Length, and both connections are
// spent).
func (s *Server) relayStream(rc *reqConn, req *httpmsg.Request, sources []fetchSource, tctx trace.TraceID) int {
	s.internalFetch.Add(1)
	ireq := s.internalRequest(req.Method, req.Path, req.Header.Get("If-Modified-Since"), tctx)
	var u *upstream
	var resp *httpmsg.Response
	var chosen fetchSource
	err := s.fetchPolicy(len(sources)).Do(s.closed, func(attempt int) error {
		cand := sources[(attempt-1)%len(sources)]
		uu, r, ferr := s.openPeerStream(cand.peer, ireq)
		if ferr != nil {
			s.table.MarkFailure(cand.node)
			return ferr
		}
		if r.StatusCode != httpmsg.StatusOK && r.StatusCode != httpmsg.StatusNotModified {
			uu.Close()
			s.table.MarkFailure(cand.node)
			return fmt.Errorf("replica %d returned %d", cand.peer.ID, r.StatusCode)
		}
		u, resp, chosen = uu, r, cand
		return nil
	})
	if err != nil {
		return s.degrade503(rc, req)
	}
	s.table.MarkSuccess(chosen.node)
	s.obs.ReplicaFetch(req.Path, chosen.node)
	peer := chosen.peer

	if resp.StatusCode == httpmsg.StatusNotModified {
		s.ups.put(peer.HTTPAddr, u) // a 304 carries no body; the conn is clean
		return s.notModified(rc, req, resp.Header.Get("Last-Modified"))
	}

	size := int64(-1)
	var src io.Reader = u.br
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		n, perr := strconv.ParseInt(strings.TrimSpace(cl), 10, 64)
		if perr != nil || n < 0 {
			u.Close()
			return s.degrade503(rc, req)
		}
		size = n
		src = io.LimitReader(u.br, n)
	} else if resp.Chunked() {
		src = httpmsg.NewChunkedReader(u.br)
	}
	status := s.streamResponse(rc, req, size, src, lastModified(resp.Header))
	// The connection survives for reuse only when the owner's body was
	// consumed exactly: a HEAD left nothing on the wire, a completed sized
	// transfer drained its LimitReader. Everything else is mid-body.
	if req.Method == "HEAD" || (status != 0 && size >= 0) {
		s.ups.put(peer.HTTPAddr, u)
	} else {
		u.Close()
	}
	return status
}

// lastModified parses an upstream Last-Modified header; zero when absent
// or unparseable.
func lastModified(h httpmsg.Header) time.Time {
	if lm := h.Get("Last-Modified"); lm != "" {
		if t, err := httpmsg.ParseHTTPDate(lm); err == nil {
			return t
		}
	}
	return time.Time{}
}
