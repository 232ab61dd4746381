package httpd

import (
	"fmt"
	"net"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/retry"
	"sweb/internal/trace"
)

// upstreamIdlePerPeer bounds how many idle internal-fetch connections are
// kept per peer. A relay burst fans out over at most this many sockets and
// reuses them; beyond that, extra connections are spent after one exchange.
const upstreamIdlePerPeer = 4

// newUpstreamPool is the node's internal-fetch transport: a keep-alive
// pool per peer address, so a relay burst does not pay a TCP dial per
// request ("NFS cross-mount" traffic rides persistent connections like
// client traffic does). The dial carries the DialDelay fault hook and the
// FetchTimeout bound, and counts UpstreamDials.
func (s *Server) newUpstreamPool() *httpmsg.Pool {
	return httpmsg.NewPool(upstreamIdlePerPeer, func(addr string) (net.Conn, error) {
		if delay := s.cfg.DialDelay; delay != nil {
			if d := delay(); d > 0 {
				time.Sleep(d)
			}
		}
		c, err := net.DialTimeout("tcp", addr, s.cfg.FetchTimeout)
		if err == nil {
			s.upstreamDials.Add(1)
		}
		return c, err
	})
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

// openPeerStream sends one internal request over the upstream pool and
// returns the connection with the response header parsed and the body
// still unread — the shape both the materializing fetch and the streaming
// relay start from.
func (s *Server) openPeerStream(peer Peer, req *httpmsg.Request) (*httpmsg.Conn, *httpmsg.Response, error) {
	c, resp, err := s.ups.RoundTrip(peer.HTTPAddr, req, connTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("owner %d: %w", peer.ID, err)
	}
	if c.Reused {
		s.upstreamReused.Add(1)
	}
	return c, resp, nil
}

// fetchFromPeer performs one internal GET against the owning node over a
// pooled keep-alive connection and materializes the body — the cache-fill
// path. The connection returns to the pool when its framing allows.
func (s *Server) fetchFromPeer(peer Peer, path string, tctx trace.TraceID) (*httpmsg.Response, error) {
	c, resp, err := s.openPeerStream(peer, s.internalRequest("GET", path, "", tctx))
	if err != nil {
		return nil, err
	}
	if err := c.ReadBody(resp, 0); err != nil {
		return nil, fmt.Errorf("read from owner %d: %w", peer.ID, err)
	}
	if resp.StatusCode != httpmsg.StatusOK {
		return nil, fmt.Errorf("owner %d returned %d", peer.ID, resp.StatusCode)
	}
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
	var u *httpmsg.Conn
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
		return s.degrade503(rc)
	}
	s.table.MarkSuccess(chosen.node)
	s.obs.ReplicaFetch(req.Path, chosen.node)

	if resp.StatusCode == httpmsg.StatusNotModified {
		u.Park() // a 304 carries no body; the conn is clean
		return s.notModified(rc, resp.Header.Get("Last-Modified"))
	}
	src, size, berr := u.Body(resp)
	if berr != nil {
		u.Close()
		return s.degrade503(rc)
	}
	status := s.streamResponse(rc, req, size, src, lastModified(resp.Header))
	// The connection survives for reuse only when the owner's body was
	// consumed exactly: a HEAD left nothing on the wire, a completed sized
	// transfer drained its LimitReader. Everything else is mid-body.
	if resp.KeepAlive() && (req.Method == "HEAD" || (status != 0 && size >= 0)) {
		u.Park()
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
