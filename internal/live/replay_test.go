package live

import (
	"bytes"
	"testing"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/core"
	"sweb/internal/httpd"
	"sweb/internal/httpmsg"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestAccessLogCapturedAndReplayable drives the live cluster, collects its
// Common Log Format access logs, and replays the trace through the
// simulator — the full production-trace-to-model loop.
func TestAccessLogCapturedAndReplayable(t *testing.T) {
	const nodes = 2
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 4, 4096)
	if err := Materialize(st, t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}

	// Build the cluster by hand so every node shares one access log.
	var logBuf bytes.Buffer
	logger := accesslog.NewLogger(&logBuf)
	dir := t.TempDir()
	if err := Materialize(st, dir, 1); err != nil {
		t.Fatal(err)
	}
	// The log must hold one 200 per fetch, and a one-shot GET does not
	// follow a 302: pin every request where it arrives (MaxRedirects 0
	// switches the broker off) instead of letting gossip-driven SWEB
	// decisions redirect.
	params := core.DefaultParams()
	params.MaxRedirects = 0
	var servers []*httpd.Server
	for i := 0; i < nodes; i++ {
		srv, err := httpd.New(httpd.Config{
			ID: i, DocRoot: nodeDocRoot(dir, i), Store: st, AccessLog: logger,
			Policy: core.NewSWEB(params), Params: params, HaveParams: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		defer srv.Close()
	}
	var peers []httpd.Peer
	for i, srv := range servers {
		peers = append(peers, httpd.Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()})
	}
	for _, srv := range servers {
		srv.SetPeers(peers)
		srv.Start()
	}

	// Send every fetch to the node that does not own the document, so
	// each relays: the owners' internal fetches must stay out of the log,
	// which holds exactly one line per client request.
	for i := 0; i < 8; i++ {
		p := paths[i%len(paths)]
		owner, _ := st.Owner(p)
		addr := servers[(owner+1)%nodes].Addr()
		resp, err := httpmsg.Do(addr, httpmsg.NewRequest("GET", p, false), 5*time.Second, 1<<20)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("fetch %d: resp=%v err=%v", i, resp, err)
		}
	}
	for _, srv := range servers {
		srv.Settle(8 / nodes)
	}
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}

	entries, err := accesslog.Parse(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("parse live log: %v", err)
	}
	if len(entries) != 8 {
		t.Fatalf("log has %d entries, want 8 (one per client request)", len(entries))
	}
	for _, e := range entries {
		if e.Status != 200 || e.Bytes != 4096 {
			t.Fatalf("unexpected log entry: %+v", e)
		}
	}

	// Replay the captured trace through the simulator.
	arrivals, err := workload.FromAccessLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simsrv.MeikoConfig(nodes, st)
	cl, err := simsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunSchedule(arrivals)
	if res.Completed != int64(len(arrivals)) {
		t.Fatalf("replay completed %d of %d", res.Completed, len(arrivals))
	}
}

// TestAccessLogRecordsErrorsAndRedirects exercises the non-200 log paths.
func TestAccessLogRecordsErrorsAndRedirects(t *testing.T) {
	st := storage.NewStore(2)
	storage.UniformSet(st, 2, 1024)
	var logBuf bytes.Buffer
	logger := accesslog.NewLogger(&logBuf)
	dir := t.TempDir()
	if err := Materialize(st, dir, 2); err != nil {
		t.Fatal(err)
	}
	var servers []*httpd.Server
	for i := 0; i < 2; i++ {
		srv, err := httpd.New(httpd.Config{
			ID: i, DocRoot: nodeDocRoot(dir, i), Store: st,
			Policy:    core.FileLocality{P: core.DefaultParams()},
			AccessLog: logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		defer srv.Close()
	}
	var peers []httpd.Peer
	for i, srv := range servers {
		peers = append(peers, httpd.Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()})
	}
	for _, srv := range servers {
		srv.SetPeers(peers)
		srv.Start()
	}
	// 404.
	if resp, err := httpmsg.Do(servers[0].Addr(), httpmsg.NewRequest("GET", "/nope", false), 5*time.Second, 1<<20); err != nil || resp.StatusCode != 404 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	// 302: ask node 0 for a file owned by node 1 under file locality, once
	// node 0 has heard node 1 (it never redirects to an unknown peer).
	for end := time.Now().Add(5 * time.Second); len(servers[0].Table().Known()) < 2; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("node 0 knows %v, want both nodes", servers[0].Table().Known())
		}
	}
	var owned1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			owned1 = p
		}
	}
	if resp, err := httpmsg.Do(servers[0].Addr(), httpmsg.NewRequest("GET", owned1, false), 5*time.Second, 1<<20); err != nil || resp.StatusCode != 302 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	servers[0].Settle(2)
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := accesslog.Parse(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var saw404, saw302 bool
	for _, e := range entries {
		saw404 = saw404 || e.Status == 404
		saw302 = saw302 || e.Status == 302
	}
	if !saw404 || !saw302 {
		t.Fatalf("log missing error/redirect entries: %+v", entries)
	}
}
