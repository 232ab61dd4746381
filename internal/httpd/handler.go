package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/httpmsg"
	"sweb/internal/observe"
	"sweb/internal/retry"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// Markers the live protocol uses:
//   - the "swebr" query parameter counts redirects ("any HTTP request is
//     not allowed to be redirected more than once"); URL redirection has to
//     carry this in the URL because a 302 cannot set request headers;
//   - the "swebt" query parameter carries the trace context the same way:
//     "<trace-id>" or "<trace-id>:<unix-micros>", the timestamp stamped at
//     the moment the 302 left the redirecting node so the target can
//     measure t_redirection on the wall clock, without sharing an epoch;
//   - the X-SWEB-Internal header marks a node-to-node fetch (the NFS
//     stand-in), which must be served directly, never re-scheduled;
//   - the X-SWEB-Trace header joins an internal fetch to the originating
//     request's trace, so the owner's disk read lands in the same span.
const (
	redirectParam  = "swebr"
	traceParam     = "swebt"
	internalHeader = "X-Sweb-Internal"
	traceHeader    = "X-Sweb-Trace"
)

const (
	connTimeout = 30 * time.Second
	// shedWriteTimeout bounds the courtesy 503 written to a shed
	// connection; a client that will not read it cannot stall anything.
	shedWriteTimeout = 2 * time.Second
)

// acceptLoop is the NCSA-style accept loop; each connection gets its own
// serve-loop goroutine (Go's stand-in for fork-per-request).
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	errStreak := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			case <-s.draining:
				// Graceful shutdown closed the listener before closed is
				// signalled; exiting here (not continuing) keeps the loop
				// from spinning on the dead listener during the drain.
				return
			default:
			}
			// Back off on repeated transient errors (EMFILE, ECONNABORTED)
			// instead of hot-spinning the core, the same capped streak the
			// loadd listener uses; it resets on the next good accept.
			errStreak++
			if errStreak > 1 {
				time.Sleep(retry.Backoff(errStreak-1, time.Millisecond, 100*time.Millisecond))
			}
			continue
		}
		errStreak = 0
		if s.inflight.Load() >= int64(s.cfg.MaxConcurrent) {
			// Accept capacity exhausted: shed the connection, the live
			// analogue of a dropped request. The courtesy 503 goes out on
			// a separate goroutine with a write deadline so one slow or
			// absent reader can never stall the accept loop.
			s.refused.Add(1)
			s.obs.Drop("shed")
			s.obs.Event(trace.EvRefused, s.cfg.Trace.NewRequest(), s.nowSec(), "reason=capacity", "")
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				_ = c.SetWriteDeadline(time.Now().Add(shedWriteTimeout))
				h := httpmsg.Header{}
				h.Set("Retry-After", s.retryAfterSeconds())
				h.Set("Connection", "close")
				_ = httpmsg.WriteSimpleResponse(c, httpmsg.StatusServiceUnavailable, h,
					httpmsg.ErrorBody(httpmsg.StatusServiceUnavailable, "Server too busy."))
				s.logAccess(c, nil, httpmsg.StatusServiceUnavailable, -1)
			}(conn)
			continue
		}
		s.accepted.Add(1)
		s.inflight.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ci := s.trackConn(conn)
			busy := s.serveConn(conn, ci)
			s.untrackConn(conn)
			conn.Close()
			s.connDone(busy)
		}()
	}
}

// logAccess emits one Common Log Format line, when logging is configured.
func (s *Server) logAccess(conn net.Conn, req *httpmsg.Request, status int, bytes int64) {
	if s.cfg.AccessLog == nil {
		return
	}
	host := "-"
	if addr := conn.RemoteAddr(); addr != nil {
		host = addr.String()
		if h, _, err := net.SplitHostPort(host); err == nil {
			host = h
		}
	}
	e := accesslog.Entry{
		Host: host, Time: time.Now(),
		Method: "-", Path: "-", Proto: "HTTP/1.0",
		Status: status, Bytes: bytes,
	}
	if req != nil {
		e.Method = req.Method
		e.Path = req.Path
		if req.Query != "" {
			e.Path += "?" + req.Query
		}
		if req.Proto != "" {
			e.Proto = req.Proto
		}
	}
	_ = s.cfg.AccessLog.Log(e)
}

// handle runs the four-phase lifecycle for one parsed request, timing each
// phase and emitting the same events the simulator does, and returns the
// request's record for the serve loop to finalize. t0 is the moment the
// request's first byte arrived (phase 1, preprocess, is the parse the
// serve loop already ran). Internal fetches return ok=false: they are the
// tail of another node's fetch-nfs span, not requests of their own, so
// they stay invisible to trace and the lifecycle accounting.
func (s *Server) handle(rc *reqConn, req *httpmsg.Request, t0 time.Time) (fl flight.Record, ok bool) {
	tParsed := time.Now()
	internal := req.Header.Get(internalHeader) != ""
	fl = flight.Record{Path: req.Path, Target: -1, Owner: -1, PredictedSeconds: -1}

	// Introspection is answered right where it arrived, like internal
	// fetches: rescheduling /sweb/status would report the wrong node.
	if !internal && !s.cfg.DisableIntrospection && strings.HasPrefix(req.Path, introspectPrefix) {
		s.introspect.Add(1)
		fl.Introspect = true
		fl.Status = s.serveIntrospection(rc, req)
		return fl, true
	}

	redirects := parseRedirectCount(req.Query)
	tctx, hopSentMicros, _ := parseTraceContext(req.Query)
	rec := s.cfg.Trace
	tid := int64(-1)
	if !internal {
		// Joining an inbound trace context keeps every hop of a redirected
		// request under one trace id; without one, this node originates
		// the trace.
		tid, tctx = rec.Begin(tctx)
		if redirects > 0 {
			s.obs.EventN(trace.EvConnected, tid, s.sinceEpoch(t0), "hop=", redirects)
		} else {
			s.obs.Event(trace.EvConnected, tid, s.sinceEpoch(t0), "", "")
		}
		s.obs.Event(trace.EvParsed, tid, s.sinceEpoch(tParsed), "path=", req.Path)
		s.obs.Phase(observe.PhaseParse, tParsed.Sub(t0).Seconds())
		if hopSentMicros > 0 {
			// The 302 carried its send time: the gap to this connection is
			// the measured t_redirection of the paper's cost model.
			s.obs.Phase(observe.PhaseRedirectHop, math.Max(0, float64(t0.UnixMicro()-hopSentMicros)/1e6))
		}
		fl.TraceID = string(tctx)
		fl.Redirected = redirects > 0
		fl.ParseSeconds = tParsed.Sub(t0).Seconds()
	}

	cgiFn, isCGI := s.cgiFor(req.Path)
	file, found := s.cfg.Store.Lookup(req.Path)
	if !found && !isCGI {
		rc.fault("not_found")
		s.notFound.Add(1)
		_ = rc.simple(httpmsg.StatusNotFound, nil,
			httpmsg.ErrorBody(httpmsg.StatusNotFound, "The requested URL was not found on this server."))
		fl.Status = httpmsg.StatusNotFound
		return fl, !internal
	}

	// Internal fetches bypass scheduling entirely: we are the NFS server.
	// When the fetching node sent a trace header, the disk read joins the
	// originating request's span; otherwise it stays trace-invisible as
	// the tail of the fetcher's own fetch-nfs phase.
	if internal {
		s.internalFetch.Add(1)
		if id := trace.TraceID(req.Header.Get(traceHeader)); id != "" && rec.Enabled() {
			jid, _ := rec.Begin(id)
			rec.Record(jid, s.sinceEpoch(time.Now()), trace.EvFetchLocal, s.cfg.ID, "internal=1")
		}
		s.serveLocalFile(rc, req, file)
		return fl, false
	}

	// Phase 2: analyze — the broker picks the best node. CGI and POST are
	// pinned where they arrived (Sec. 3.2 step 2; POST handling is the
	// paper's footnote-1 extension).
	tAnalyzed := tParsed
	if !isCGI && req.Method != "POST" {
		d := s.cfg.Oracle.Characterize(req.Path)
		dec := s.cfg.Policy.Choose(core.Request{
			Path:          req.Path,
			Size:          file.Size,
			Owner:         file.Owner,
			Replicas:      file.Replicas,
			Ops:           d.Ops(file.Size) + file.CGIOps,
			DiskBytes:     d.DiskBytes(file.Size),
			Arrived:       s.cfg.ID,
			RedirectCount: redirects,
			CachedLocal:   s.cachedLocally(req.Path),
		}, s.cfg.ID, s.snapshotLoads())
		target := s.confirmTarget(dec)
		tAnalyzed = time.Now()
		fl.Policy = s.cfg.Policy.Name()
		fl.Target = s.cfg.ID
		fl.PredictedSeconds = observe.Finite(dec.Estimate)
		fl.Candidates = observe.CostTable(dec.Candidates)
		fl.AnalyzeSeconds = tAnalyzed.Sub(tParsed).Seconds()
		s.obs.EventN(trace.EvAnalyzed, tid, s.sinceEpoch(tAnalyzed), "target=", target)
		s.obs.Phase(observe.PhaseAnalyze, fl.AnalyzeSeconds)
		if target != s.cfg.ID {
			if peer, ok := s.peerByID(target); ok {
				fl.Target = target
				fl.Status = s.redirect(rc, req, peer, redirects, tctx, tid, tAnalyzed)
				fl.Redirected = fl.Redirected || fl.Status > 0
				return fl, true
			}
		}
	}

	// Phase 4: fulfillment. One counted cache lookup per request, exactly
	// like the simulator's Contains at the top of streamFile: a validated
	// hit serves from memory regardless of ownership (emitting fetch-local,
	// as the simulator does for cached remote documents), a miss falls
	// through to the disk or the owner and fills the cache on the way out.
	tFulfill := time.Now()
	at := s.sinceEpoch(tFulfill)
	phase := observe.PhaseFetchLocal
	var hot cache.Entry
	if !isCGI && s.cache != nil {
		hot, fl.CacheHit = s.cache.Lookup(req.Path, s.entryCheck(req.Path, file))
	}
	switch {
	case isCGI:
		phase = observe.PhaseCGI
		s.obs.Event(trace.EvCGI, tid, at, "path=", req.Path)
		fl.Status = s.serveCGI(rc, req, cgiFn)
	case fl.CacheHit:
		// Hot-file hit: a memory copy — no disk read, and for a foreign
		// document no owner round-trip either, which keeps the document
		// serving even while its owner is dead.
		s.obs.Event(trace.EvFetchLocal, tid, at, "cache=hit", "")
		fl.Status = s.writeEntry(rc, req, hot)
	case file.HasReplica(s.cfg.ID):
		s.obs.Event(trace.EvFetchLocal, tid, at, "", "")
		fl.Status = s.serveLocalFile(rc, req, file)
	default:
		phase = observe.PhaseFetchNFS
		fl.Relay = true
		s.obs.EventN(trace.EvFetchNFS, tid, at, "owner=", file.Owner)
		fl.Status = s.serveRemoteFile(rc, req, file, tctx)
	}
	done := time.Now()
	fl.FulfillSeconds = done.Sub(tFulfill).Seconds()
	s.obs.Phase(phase, fl.FulfillSeconds)
	if fl.Status > 0 {
		s.obs.EventN(trace.EvSent, tid, s.sinceEpoch(rc.meter.lastWrite), "status=", fl.Status)
	}
	// The document-heat inputs: the same fields the simulator's complete()
	// fills, so both substrates feed identical sketches.
	if !isCGI {
		fl.Owner = file.Owner
		fl.Miss = s.cache != nil && !fl.CacheHit
	}
	fl.Replicas = len(file.ReplicaSet())
	return fl, true
}

// redirect is phase 3: a 302 to peer with the bumped URL, preserving the
// client's own query parameters and threading the trace context. The send
// time is taken once, before the write: the swebt stamp the target
// measures the hop from, the redirected event and the redirect phase all
// carry that one instant, so the target's events can never precede it.
// They are emitted only once the write succeeded; it returns the status
// written (0 when the client never saw the 302).
func (s *Server) redirect(rc *reqConn, req *httpmsg.Request, peer Peer, redirects int,
	tctx trace.TraceID, tid int64, tAnalyzed time.Time) int {
	tSent := time.Now()
	loc := redirectLocation(peer.HTTPAddr, req.Path, req.Query, redirects,
		formatTraceContext(tctx, tSent.UnixMicro()))
	h := httpmsg.Header{}
	h.Set("Location", loc)
	if err := rc.simple(httpmsg.StatusMovedTemporarily, h,
		httpmsg.ErrorBody(httpmsg.StatusMovedTemporarily,
			`The document has moved <A HREF="`+loc+`">here</A>.`)); err != nil {
		// No request is on its way to the peer: inflating its load view
		// would only skew later decisions.
		rc.fault("write_failed")
		return 0
	}
	s.table.Bump(peer.ID)
	s.redirected.Add(1)
	s.obs.EventN(trace.EvRedirected, tid, s.sinceEpoch(tSent), "to=", peer.ID)
	s.obs.Phase(observe.PhaseRedirect, tSent.Sub(tAnalyzed).Seconds())
	return httpmsg.StatusMovedTemporarily
}

// confirmTarget re-validates the broker's pick against the freshest peer
// health: never 302 to a peer whose loadd row has gone stale or whose data
// path is in a failure streak. When the pick fails the check, the cheapest
// remaining feasible candidate wins (local service included), so a dead
// peer degrades the schedule instead of the request.
func (s *Server) confirmTarget(dec core.Decision) int {
	target := dec.Target
	if target == s.cfg.ID {
		return target
	}
	now := s.nowSec()
	if s.table.Available(target, now) {
		return target
	}
	best, bestTotal := s.cfg.ID, math.Inf(1)
	for _, cb := range dec.Candidates {
		if cb.Infeasible || cb.Node == target {
			continue
		}
		if cb.Node != s.cfg.ID && !s.table.Available(cb.Node, now) {
			continue
		}
		if cb.Total < bestTotal {
			best, bestTotal = cb.Node, cb.Total
		}
	}
	return best
}

// redirectLocation rebuilds the client's URL pointing at a peer, keeping
// every original query parameter and replacing only the swebr counter and
// the swebt trace context, so `GET /doc?x=1` arrives at the target node
// still carrying `x=1`. The decoded path is re-escaped into wire form — a
// document name with a space or '%' must not produce a malformed Location.
// traceCtx is the rendered swebt value ("" omits the parameter: tracing is
// off and no upstream context arrived).
func redirectLocation(httpAddr, path, query string, redirects int, traceCtx string) string {
	var b strings.Builder
	b.WriteString("http://")
	b.WriteString(httpAddr)
	b.WriteString(httpmsg.EscapePath(path))
	sep := byte('?')
	for _, kv := range strings.Split(query, "&") {
		if kv == "" || strings.HasPrefix(kv, redirectParam+"=") ||
			strings.HasPrefix(kv, traceParam+"=") {
			continue
		}
		b.WriteByte(sep)
		b.WriteString(kv)
		sep = '&'
	}
	b.WriteByte(sep)
	fmt.Fprintf(&b, "%s=%d", redirectParam, redirects+1)
	if traceCtx != "" {
		fmt.Fprintf(&b, "&%s=%s", traceParam, traceCtx)
	}
	return b.String()
}

// formatTraceContext renders the swebt value: the trace id plus the
// moment the 302 goes out (Unix microseconds). Empty id renders empty —
// nothing to propagate.
func formatTraceContext(id trace.TraceID, sentUnixMicros int64) string {
	if id == "" {
		return ""
	}
	if sentUnixMicros <= 0 {
		return string(id)
	}
	return fmt.Sprintf("%s:%d", id, sentUnixMicros)
}

// parseTraceContext extracts the swebt trace context from a query string.
func parseTraceContext(query string) (id trace.TraceID, sentUnixMicros int64, ok bool) {
	for _, kv := range strings.Split(query, "&") {
		v, has := strings.CutPrefix(kv, traceParam+"=")
		if !has {
			continue
		}
		idPart, tsPart, hasTS := strings.Cut(v, ":")
		if idPart == "" {
			continue
		}
		if hasTS {
			if n, err := strconv.ParseInt(tsPart, 10, 64); err == nil && n > 0 {
				sentUnixMicros = n
			}
		}
		return trace.TraceID(idPart), sentUnixMicros, true
	}
	return "", 0, false
}

// retryAfterSeconds renders the configured Retry-After hint (whole
// seconds, minimum 1, as HTTP wants it).
func (s *Server) retryAfterSeconds() string {
	secs := int(math.Ceil(s.cfg.RetryAfterHint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// cachedLocally reports whether the document is resident in this node's
// hot-file cache — the real cache-residency signal the broker's
// CachedLocal input carries, stat-free like the simulator's Peek. With the
// cache off nothing is resident and every candidate pays its full t_data.
func (s *Server) cachedLocally(path string) bool {
	return s.cache != nil && s.cache.Peek(path)
}

// entryCheck picks the staleness validator for a cached document: a file
// this node owns revalidates against the docroot (mtime and size must
// still match the stat), a relayed foreign file against the manifest size
// — the strongest truth each side has. A failed check invalidates the
// entry atomically, so the cache never serves bytes older than what the
// validator can see.
func (s *Server) entryCheck(path string, file storage.File) func(cache.Entry) bool {
	if file.HasReplica(s.cfg.ID) {
		return s.localCheck(path)
	}
	return func(ent cache.Entry) bool { return int64(len(ent.Body)) == file.Size }
}

// localCheck validates a cached entry against the docroot file it came
// from. It runs a stat under the cache lock — cheap, and it makes
// validate-and-invalidate atomic with respect to concurrent fills.
func (s *Server) localCheck(path string) func(cache.Entry) bool {
	full := s.localPath(path)
	return func(ent cache.Entry) bool {
		fi, err := os.Stat(full)
		return err == nil && fi.Size() == int64(len(ent.Body)) && fi.ModTime().Equal(ent.ModTime)
	}
}

// cacheable reports whether the document can go through the hot-file
// cache; oversized files stream straight from their source, mirroring the
// model cache's refusal to hold a file bigger than its whole capacity.
func (s *Server) cacheable(file storage.File) bool {
	return s.cache != nil && file.Size > 0 && file.Size <= s.cache.Capacity()
}

// snapshotLoads builds the broker's view, refreshing the self row from
// live counters. CPULoad counts requests being processed right now, not
// open connections — a parked keep-alive connection is not load.
func (s *Server) snapshotLoads() []core.NodeLoad {
	s.peersMu.RLock()
	n := 0
	for id := range s.peers {
		if id >= n {
			n = id + 1
		}
	}
	s.peersMu.RUnlock()
	if self := s.cfg.ID; self >= n {
		n = self + 1
	}
	loads := s.table.Snapshot(n, s.nowSec())
	loads[s.cfg.ID] = core.NodeLoad{
		Available:       true,
		CPULoad:         float64(s.reqActive.Load()),
		DiskLoad:        float64(s.diskActive.Load()),
		NetLoad:         float64(s.netActive.Load()),
		CPUOpsPerSec:    s.cfg.CPUOpsPerSec,
		DiskBytesPerSec: s.cfg.DiskBytesPerSec,
		NetBytesPerSec:  s.cfg.NetBytesPerSec,
	}
	return loads
}

func (s *Server) peerByID(id int) (Peer, bool) {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	p, ok := s.peers[id]
	return p, ok
}

func parseRedirectCount(query string) int {
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, redirectParam+"="); ok {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				return n
			}
		}
	}
	return 0
}

// localPath maps a URL path into this node's docroot.
func (s *Server) localPath(urlPath string) string {
	return filepath.Join(s.cfg.DocRoot, filepath.FromSlash(strings.TrimPrefix(urlPath, "/")))
}

// serveLocalFile serves a document this node owns and returns the status
// written (0 when the write itself failed). Cacheable documents go through
// the hot-file cache with singleflight fill — one disk read per document
// no matter how many handlers want it at once, and the owner side of an
// internal fetch populates the cache too, exactly as the simulator's NFS
// server inserts on a remote read. The cache lookup here is quiet (no
// hit/miss accounting): the client-facing counted lookup already ran in
// handle, and internal fetches mirror the simulator's stat-free Peek.
func (s *Server) serveLocalFile(rc *reqConn, req *httpmsg.Request, file storage.File) int {
	if !s.cacheable(file) {
		return s.streamLocalFile(rc, req)
	}
	ent, err := s.cache.Fetch(req.Path, s.localCheck(req.Path), func() (cache.Entry, error) {
		return s.readLocalFile(req.Path)
	})
	if err != nil {
		return s.openFailed(rc, err)
	}
	return s.writeEntry(rc, req, ent)
}

// openFailed answers a document the docroot could not open: 403 for a
// permission error, 404 otherwise.
func (s *Server) openFailed(rc *reqConn, err error) int {
	rc.fault("local_io")
	code := httpmsg.StatusNotFound
	if os.IsPermission(err) {
		code = httpmsg.StatusForbidden
	}
	_ = rc.simple(code, nil, httpmsg.ErrorBody(code, "Cannot open document."))
	return code
}

// notModified answers a conditional GET whose document is unchanged.
func (s *Server) notModified(rc *reqConn, lastModified string) int {
	h := httpmsg.Header{}
	if lastModified != "" {
		h.Set("Last-Modified", lastModified)
	}
	if rc.simple(httpmsg.StatusNotModified, h, nil) != nil {
		rc.fault("write_failed")
		return 0
	}
	s.served.Add(1)
	return httpmsg.StatusNotModified
}

// readLocalFile is the cache's backing read: the whole document in one
// disk pass, with diskActive held across it so the scheduler sees the
// disk pressure of the fill.
func (s *Server) readLocalFile(path string) (cache.Entry, error) {
	s.diskActive.Add(1)
	defer s.diskActive.Add(-1)
	full := s.localPath(path)
	fi, err := os.Stat(full)
	if err != nil {
		return cache.Entry{}, err
	}
	body, err := os.ReadFile(full)
	if err != nil {
		return cache.Entry{}, err
	}
	return cache.Entry{Path: path, Body: body, ModTime: fi.ModTime()}, nil
}

// writeEntry answers a request from a memory-resident entry: conditional
// GETs revalidate against the entry's mtime (local files and relayed
// bodies alike — the relay path now carries the owner's Last-Modified into
// the entry), full responses stream from the cached bytes with no
// diskActive — the whole point of the hit path.
func (s *Server) writeEntry(rc *reqConn, req *httpmsg.Request, ent cache.Entry) int {
	if !ent.ModTime.IsZero() && httpmsg.NotModified(req.Header.Get("If-Modified-Since"), ent.ModTime) {
		return s.notModified(rc, httpmsg.FormatHTTPDate(ent.ModTime))
	}
	return s.streamResponse(rc, req, int64(len(ent.Body)), bytes.NewReader(ent.Body), ent.ModTime)
}

// streamLocalFile streams a document from the node's own disk, bypassing
// the cache (cache off, or the file exceeds the whole cache capacity).
// diskActive is held for the whole transfer — the disk is read as the body
// streams, so releasing the counter at open time would hide disk pressure
// from the scheduler exactly while the disk is busiest.
func (s *Server) streamLocalFile(rc *reqConn, req *httpmsg.Request) int {
	s.diskActive.Add(1)
	defer s.diskActive.Add(-1)
	f, err := os.Open(s.localPath(req.Path))
	if err != nil {
		return s.openFailed(rc, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		rc.fault("local_io")
		_ = rc.simple(httpmsg.StatusInternalServerError, nil,
			httpmsg.ErrorBody(httpmsg.StatusInternalServerError, "stat failed"))
		return httpmsg.StatusInternalServerError
	}
	// Conditional GET (RFC 1945 §10.9): a browser revalidating its cache
	// sends If-Modified-Since and gets a body-less 304 if the document is
	// unchanged — the cheapest response the 1996 server knows.
	if httpmsg.NotModified(req.Header.Get("If-Modified-Since"), fi.ModTime()) {
		return s.notModified(rc, httpmsg.FormatHTTPDate(fi.ModTime()))
	}
	// The body streams straight from the open *os.File through a pooled
	// copy buffer — the document is never materialized in one allocation.
	return s.streamResponse(rc, req, fi.Size(), f, fi.ModTime())
}

// serveRemoteFile fetches the document from a replica (the NFS stand-in)
// and relays it to the client. The replica set is walked cheapest-first
// (core.RankSources) with failover: a dead source feeds the loadd health
// view and the next attempt moves down the list, so a single node death
// never turns a replicated document into a 503. Cacheable documents are
// materialized into the hot-file cache — with the source's Last-Modified
// preserved so clients can 304-revalidate foreign documents — and
// concurrent requests for the same cold document coalesce into one fetch
// (singleflight). Documents too big for the cache stream straight from
// the source's socket to the client without ever being held in memory.
// Either way the fetch runs under the node's retry budget, and only once
// the budget is spent across every replica does the client see the
// degradation ladder's last rung: 503 with a Retry-After hint.
func (s *Server) serveRemoteFile(rc *reqConn, req *httpmsg.Request, file storage.File, tctx trace.TraceID) int {
	sources := s.rankedSources(req.Path, file)
	if len(sources) == 0 {
		rc.fault("owner_unknown")
		_ = rc.simple(httpmsg.StatusInternalServerError, nil,
			httpmsg.ErrorBody(httpmsg.StatusInternalServerError, "owner unknown"))
		return httpmsg.StatusInternalServerError
	}
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	if !s.cacheable(file) {
		return s.relayStream(rc, req, sources, tctx)
	}
	ent, err := s.cache.Fetch(req.Path, s.entryCheck(req.Path, file), func() (cache.Entry, error) {
		resp, ferr := s.fetchWithRetry(sources, req.Path, tctx)
		if ferr != nil {
			return cache.Entry{}, ferr
		}
		return cache.Entry{Path: req.Path, Body: resp.Body, ModTime: lastModified(resp.Header)}, nil
	})
	if err != nil {
		return s.degrade503(rc)
	}
	return s.writeEntry(rc, req, ent)
}

// rankedSources maps core.RankSources' cheapest-first replica order onto
// the known peers — the failover list the fetch paths walk. Unavailable
// replicas trail the list rather than vanish: when every replica looks
// dead the fetch still tries them, because the health view may be stale.
func (s *Server) rankedSources(path string, file storage.File) []fetchSource {
	d := s.cfg.Oracle.Characterize(path)
	coreReq := core.Request{
		Path:      path,
		Owner:     file.Owner,
		Replicas:  file.Replicas,
		DiskBytes: d.DiskBytes(file.Size),
	}
	loads := s.snapshotLoads()
	out := make([]fetchSource, 0, len(file.ReplicaSet()))
	for _, rep := range core.RankSources(coreReq, s.cfg.ID, s.cfg.ID, loads) {
		if rep == s.cfg.ID {
			continue
		}
		if peer, ok := s.peerByID(rep); ok {
			out = append(out, fetchSource{node: rep, peer: peer})
		}
	}
	return out
}

// degrade503 answers the degradation ladder's last rung: the owner stayed
// unreachable through the whole retry budget.
func (s *Server) degrade503(rc *reqConn) int {
	rc.fault("owner_unreachable")
	s.fetchFailed.Add(1)
	h := httpmsg.Header{}
	h.Set("Retry-After", s.retryAfterSeconds())
	_ = rc.simple(httpmsg.StatusServiceUnavailable, h,
		httpmsg.ErrorBody(httpmsg.StatusServiceUnavailable, "owner unreachable"))
	return httpmsg.StatusServiceUnavailable
}

// serveCGI executes a registered dynamic endpoint, returning the status
// written (0 when the write failed).
func (s *Server) serveCGI(rc *reqConn, req *httpmsg.Request, fn CGIFunc) int {
	body, ctype := fn(req.Query, req.Body)
	if ctype == "" {
		ctype = "text/html"
	}
	h := httpmsg.Header{}
	h.Set("Content-Type", ctype)
	if err := rc.simple(httpmsg.StatusOK, h, body); err != nil {
		rc.fault("write_failed")
		return 0
	}
	s.served.Add(1)
	s.bytesOut.Add(int64(len(body)))
	return httpmsg.StatusOK
}

// streamResponse writes the response header and body in the httpd
// write-loop style, returning the status written (0 when the write failed
// mid-flight, which also spends the connection). size < 0 means the length
// is unknown up front: HTTP/1.1 clients get chunked transfer coding, and
// HTTP/1.0 clients an EOF-delimited body on a connection marked close. A
// zero modTime omits Last-Modified. The body crosses through a pooled copy
// buffer; a HEAD response skips it entirely and counts zero body bytes.
func (s *Server) streamResponse(rc *reqConn, req *httpmsg.Request, size int64, body io.Reader, modTime time.Time) int {
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	bw := bufio.NewWriter(rc.c)
	h := httpmsg.Header{}
	h.Set("Content-Type", httpmsg.ContentTypeFor(req.Path))
	chunked := false
	switch {
	case size >= 0:
		h.Set("Content-Length", strconv.FormatInt(size, 10))
	case rc.proto == "HTTP/1.1":
		chunked = true
		h.Set("Transfer-Encoding", "chunked")
	default:
		// Unknown length to a 1.0 client: the body runs to EOF, so this
		// connection cannot carry another request.
		rc.keepAlive = false
	}
	if !modTime.IsZero() {
		h.Set("Last-Modified", httpmsg.FormatHTTPDate(modTime))
	}
	h.Set("Connection", rc.connHeader())
	if err := httpmsg.WriteProtoResponseHeader(bw, rc.proto, httpmsg.StatusOK, h); err != nil {
		return rc.fail()
	}
	var sent int64
	if req.Method != "HEAD" {
		var err error
		switch {
		case chunked:
			cw := httpmsg.NewChunkedWriter(bw)
			sent, err = httpmsg.CopyBody(cw, body)
			if err == nil {
				err = cw.Close()
			}
		case size >= 0:
			sent, err = httpmsg.CopyBodyN(bw, body, size)
		default:
			sent, err = httpmsg.CopyBody(bw, body)
		}
		s.bytesOut.Add(sent)
		if err != nil {
			// Short or failed body: the client was promised different
			// framing than it got, so the connection is unusable.
			return rc.fail()
		}
	}
	if err := bw.Flush(); err != nil {
		return rc.fail()
	}
	s.served.Add(1)
	rc.body = sent
	return httpmsg.StatusOK
}
