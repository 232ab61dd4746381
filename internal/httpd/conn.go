package httpd

import (
	"bufio"
	"net"
	"time"

	"sweb/internal/flight"
	"sweb/internal/httpmsg"
)

// writeMeter wraps the client socket on the write side so the serve loop
// can measure time-to-first-byte and per-response byte counts without the
// fulfillment paths knowing: the instant the first byte of a response
// reaches the wire is recorded regardless of which path (simple, stream,
// chunked) produced it. lastWrite is taken as the final write is issued,
// so a "sent" stamped from it precedes the client's receipt of the last
// byte. Only the handler goroutine writes, so the fields need no lock.
type writeMeter struct {
	net.Conn
	firstWrite time.Time
	lastWrite  time.Time
	written    int64
}

func (w *writeMeter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		w.lastWrite = time.Now()
		if w.firstWrite.IsZero() {
			w.firstWrite = w.lastWrite
		}
	}
	n, err := w.Conn.Write(p)
	w.written += int64(n)
	return n, err
}

// reset arms the meter for the next request on the connection.
func (w *writeMeter) reset() {
	w.firstWrite = time.Time{}
	w.lastWrite = time.Time{}
	w.written = 0
}

// reqConn is one client connection's serving state: the buffered reader
// requests are parsed from, the protocol version the current response must
// echo, and the keep-alive decision the serve loop made for it. The
// fulfillment paths write responses through it so every response carries a
// truthful Connection header.
type reqConn struct {
	s         *Server
	c         net.Conn // the metered connection responses are written to
	meter     *writeMeter
	id        int64 // tracked connection id, for flight records
	br        *bufio.Reader
	proto     string // response protocol version, echoing the request
	keepAlive bool   // whether the connection survives the current response
	served    int    // requests answered on this connection so far
	drop      string // the current request's drop cause, "" while healthy
	body      int64  // body bytes of the current response, for the access log
}

// connHeader renders the Connection header for the loop's current decision.
func (rc *reqConn) connHeader() string {
	if rc.keepAlive {
		return "keep-alive"
	}
	return "close"
}

// simple writes a complete small response (errors, redirects, 304s),
// stamped with the serve loop's keep-alive decision. A failed write spends
// the connection.
func (rc *reqConn) simple(code int, h httpmsg.Header, body []byte) error {
	if h == nil {
		h = httpmsg.Header{}
	}
	h.Set("Connection", rc.connHeader())
	err := httpmsg.WriteProtoSimpleResponse(rc.c, rc.proto, code, h, body)
	if err != nil {
		rc.keepAlive = false
	}
	rc.body = int64(len(body))
	return err
}

// fault charges the current request an error with its drop cause, which
// the request's record carries to the observer.
func (rc *reqConn) fault(cause string) {
	rc.s.errors.Add(1)
	rc.drop = cause
}

// fail records a mid-response write failure. The response framing is now
// indeterminate, so the connection cannot carry another request.
func (rc *reqConn) fail() int {
	rc.fault("write_failed")
	rc.keepAlive = false
	return 0
}

// isDraining reports whether graceful shutdown has begun; the serve loop
// stops renewing keep-alive from that point.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// serveConn runs the persistent-connection serve loop: park in an idle
// read between requests, then give each request its own read and write
// budgets. This replaces the old one-request-per-connection handle with
// its single whole-connection deadline — a keep-alive client now pays the
// TCP handshake once, which is exactly the saving the paper's t_redirection
// term wants after a 302. Deadlines stay on the raw socket; responses go
// through the write meter so every request leaves a flight record with an
// honest time-to-first-byte. It reports whether the connection ended
// mid-request rather than from the idle wait.
func (s *Server) serveConn(c net.Conn, ci *connInfo) (busy bool) {
	w := &writeMeter{Conn: c}
	rc := &reqConn{s: s, c: w, meter: w, id: ci.id, br: bufio.NewReader(c), proto: "HTTP/1.0"}
	defer func() {
		// Requests-per-connection, observed once at connection end: the
		// keep-alive amortization the persistent-connection data plane bought.
		s.kaServed.Observe(float64(rc.served))
	}()
	for {
		// Idle wait: the peer may keep the connection open up to
		// IdleTimeout between requests. Pipelined bytes already buffered
		// make the peek free.
		_ = c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if _, err := rc.br.Peek(1); err != nil {
			// Clean close, idle timeout, or reset between requests:
			// nothing was promised, nothing to answer. A timeout on a
			// live server is the idle reaper doing its job.
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.isDraining() {
				s.idleReaped.Add(1)
			}
			return false
		}
		s.busyAdd(1)
		w.reset()
		rc.drop, rc.body = "", 0
		t0 := time.Now()
		_ = c.SetReadDeadline(t0.Add(connTimeout))
		req, err := httpmsg.ReadRequest(rc.br)
		var fl flight.Record
		ok := true
		if err != nil {
			rc.keepAlive = false
			rc.fault("bad_request")
			s.badRequests.Add(1)
			_ = c.SetWriteDeadline(time.Now().Add(connTimeout))
			_ = rc.simple(httpmsg.StatusBadRequest, nil,
				httpmsg.ErrorBody(httpmsg.StatusBadRequest, err.Error()))
			fl = flight.Record{Path: "(unparsed)", Status: httpmsg.StatusBadRequest,
				Target: -1, Owner: -1, PredictedSeconds: -1}
		} else {
			rc.served++
			ci.served.Add(1)
			rc.proto = "HTTP/1.0"
			if req.Proto == "HTTP/1.1" {
				rc.proto = "HTTP/1.1"
			}
			rc.keepAlive = !s.cfg.KeepAliveOff && req.KeepAlive() &&
				(s.cfg.KeepAliveMax <= 0 || rc.served < s.cfg.KeepAliveMax) &&
				!s.isDraining()
			_ = c.SetWriteDeadline(time.Now().Add(connTimeout))
			s.reqActive.Add(1)
			ci.active.Store(true)
			fl, ok = s.handle(rc, req, t0)
			ci.active.Store(false)
			s.reqActive.Add(-1)
		}
		if ok {
			s.finish(rc, req, fl, t0)
		}
		if !rc.keepAlive || s.isDraining() {
			return true
		}
		s.busyAdd(-1)
	}
}
