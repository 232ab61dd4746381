package live

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// startCluster is a test helper: n nodes, count files of size bytes.
func startCluster(t *testing.T, n, count int, size int64, policy string) (*Cluster, []string) {
	t.Helper()
	st := storage.NewStore(n)
	paths := storage.UniformSet(st, count, size)
	cl, err := Start(Options{Nodes: n, Store: st, BaseDir: t.TempDir(), Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, paths
}

func TestStartValidation(t *testing.T) {
	st := storage.NewStore(2)
	cases := []Options{
		{Nodes: 0, Store: st, BaseDir: "x"},
		{Nodes: 2, Store: nil, BaseDir: "x"},
		{Nodes: 2, Store: st, BaseDir: ""},
		{Nodes: 3, Store: st, BaseDir: "x"},              // store/node mismatch
		{Nodes: 2, Store: st, BaseDir: "x", Policy: "?"}, // unknown policy
	}
	for i, o := range cases {
		if o.BaseDir == "x" {
			o.BaseDir = t.TempDir()
		}
		if _, err := Start(o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestServeOwnedDocument(t *testing.T) {
	cl, paths := startCluster(t, 2, 4, 8192, "rr")
	client := cl.NewClient()
	for _, p := range paths {
		res, err := client.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 200 || len(res.Body) != 8192 {
			t.Fatalf("%s: status=%d len=%d", p, res.Status, len(res.Body))
		}
	}
}

func TestBodiesMatchDiskContent(t *testing.T) {
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 2, 4096)
	dir := t.TempDir()
	cl, err := Start(Options{Nodes: 2, Store: st, BaseDir: dir, Policy: "rr", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.NewClient().Get(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	f, _ := st.Lookup(paths[0])
	disk, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("node%d", f.Owner),
		filepath.FromSlash(strings.TrimPrefix(paths[0], "/"))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, disk) {
		t.Fatal("served body differs from on-disk content")
	}
}

// direct fetch against one specific node, no redirect following.
func directGet(t *testing.T, addr, path string) (int, httpmsg.Header, []byte) {
	t.Helper()
	resp, err := httpmsg.Do(addr, httpmsg.NewRequest("GET", path, false), 10*time.Second, 64<<20)
	if err != nil {
		t.Fatalf("GET %s from %s: %v", path, addr, err)
	}
	return resp.StatusCode, resp.Header, resp.Body
}

func TestRemoteFetchThroughNonOwner(t *testing.T) {
	// Round-robin never redirects, so asking the wrong node forces the
	// NFS-style internal fetch path.
	cl, _ := startCluster(t, 2, 2, 4096, "rr")
	st := cl.store
	var pathOwnedBy1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			pathOwnedBy1 = p
			break
		}
	}
	status, _, body := directGet(t, cl.Servers[0].Addr(), pathOwnedBy1)
	if status != 200 || len(body) != 4096 {
		t.Fatalf("status=%d len=%d", status, len(body))
	}
	if cl.Servers[1].Stats().InternalFetch == 0 {
		t.Fatal("owner saw no internal fetch")
	}
}

func TestFileLocalityRedirectsToOwner(t *testing.T) {
	cl, _ := startCluster(t, 2, 2, 4096, "fl")
	// The 302 only happens once node 0 sees node 1 as available.
	waitKnown(t, []int{0}, cl, 2, 5*time.Second)
	st := cl.store
	var pathOwnedBy1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			pathOwnedBy1 = p
			break
		}
	}
	status, hdr, _ := directGet(t, cl.Servers[0].Addr(), pathOwnedBy1)
	if status != 302 {
		t.Fatalf("status = %d, want 302", status)
	}
	loc := hdr.Get("Location")
	if !strings.Contains(loc, cl.Servers[1].Addr()) {
		t.Fatalf("Location %q does not point at the owner", loc)
	}
	if !strings.Contains(loc, "swebr=1") {
		t.Fatalf("Location %q missing the redirect counter", loc)
	}
	// Following the location must serve directly (no ping-pong).
	rest := strings.TrimPrefix(loc, "http://")
	slash := strings.IndexByte(rest, '/')
	status2, _, body := directGet(t, rest[:slash], rest[slash:])
	if status2 != 200 || len(body) != 4096 {
		t.Fatalf("redirect target: status=%d len=%d", status2, len(body))
	}
}

func TestRedirectCounterPreventsPingPong(t *testing.T) {
	cl, _ := startCluster(t, 2, 2, 4096, "fl")
	st := cl.store
	var pathOwnedBy1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			pathOwnedBy1 = p
		}
	}
	// Claim we were already redirected: even the wrong node must serve it.
	status, _, body := directGet(t, cl.Servers[0].Addr(), pathOwnedBy1+"?swebr=1")
	if status != 200 || len(body) != 4096 {
		t.Fatalf("redirected request bounced again: status=%d", status)
	}
}

func TestClientFollowsRedirectTransparently(t *testing.T) {
	cl, paths := startCluster(t, 3, 6, 4096, "fl")
	waitKnown(t, []int{0, 1, 2}, cl, 3, 5*time.Second)
	client := cl.NewClient()
	// Fetch the same document repeatedly: the DNS rotation moves across
	// all three nodes while the owner stays fixed, so two thirds of the
	// fetches must arrive via a 302.
	redirected := 0
	for i := 0; i < 6; i++ {
		res, err := client.Get(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 200 {
			t.Fatalf("status = %d", res.Status)
		}
		if res.Redirected {
			redirected++
		}
	}
	if redirected != 4 {
		t.Fatalf("redirected %d of 6, want 4 (rotation hits the owner twice)", redirected)
	}
}

func TestNotFound(t *testing.T) {
	cl, _ := startCluster(t, 2, 2, 1024, "sweb")
	res, err := cl.NewClient().Get("/missing.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Fatalf("status = %d", res.Status)
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	cl, _ := startCluster(t, 1, 1, 1024, "rr")
	conn, err := net.Dial("tcp", cl.Servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BOGUS REQUEST LINE\r\n\r\n")
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHEADOmitsBody(t *testing.T) {
	cl, paths := startCluster(t, 1, 1, 4096, "rr")
	conn, err := net.Dial("tcp", cl.Servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &httpmsg.Request{Method: "HEAD", Path: paths[0], Header: httpmsg.Header{}}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := httpmsg.ReadResponseHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Length") != "4096" {
		t.Fatalf("content-length = %q", resp.Header.Get("Content-Length"))
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("HEAD returned %d body bytes", len(rest))
	}
}

func TestCGIGetAndPost(t *testing.T) {
	st := storage.NewStore(2)
	storage.UniformSet(st, 2, 1024)
	st.MustAdd(storage.File{Path: "/cgi-bin/echo.cgi", Size: 64, Owner: 0, CGI: true})
	cl, err := Start(Options{Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "sweb", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, srv := range cl.Servers {
		srv.RegisterCGI("/cgi-bin/echo.cgi", func(query string, body []byte) ([]byte, string) {
			return []byte("q=" + query + " b=" + string(body)), "text/plain"
		})
	}
	client := cl.NewClient()
	res, err := client.Get("/cgi-bin/echo.cgi?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != "q=x=1 b=" {
		t.Fatalf("cgi get: %d %q", res.Status, res.Body)
	}
	// POST: the footnote-1 extension; must be served where it arrives.
	res, err = client.Post("/cgi-bin/echo.cgi", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != "q= b=payload" {
		t.Fatalf("cgi post: %d %q", res.Status, res.Body)
	}
}

func TestLoaddGossipPopulatesTables(t *testing.T) {
	st := storage.NewStore(3)
	storage.UniformSet(st, 3, 1024)
	cl, err := Start(Options{
		Nodes: 3, Store: st, BaseDir: t.TempDir(),
		LoaddPeriod: 50 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		full := true
		for _, srv := range cl.Servers {
			if len(srv.Table().Known()) < 3 {
				full = false
			}
		}
		if full {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, srv := range cl.Servers {
		t.Logf("node %d knows %v (heard %d samples)", i, srv.Table().Known(), srv.Stats().SamplesHeard)
	}
	t.Fatal("loadd gossip did not converge within 5s")
}

func TestMaxConcurrentSheds(t *testing.T) {
	st := storage.NewStore(1)
	paths := storage.UniformSet(st, 1, 1024)
	cl, err := Start(Options{
		Nodes: 1, Store: st, BaseDir: t.TempDir(),
		MaxConcurrent: 1, Policy: "rr", Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Hold one connection open mid-request to occupy the single slot.
	hold, err := net.Dial("tcp", cl.Servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if _, err := hold.Write([]byte("GET " + paths[0] + " HTTP/1.0\r\n")); err != nil {
		t.Fatal(err)
	}
	// The handler goroutine is now blocked reading the rest of the
	// request; a second connection must be shed with 503.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := httpmsg.Do(cl.Servers[0].Addr(), httpmsg.NewRequest("GET", paths[0], false), time.Second, 1<<20)
		if err == nil && resp.StatusCode == 503 {
			if cl.Servers[0].Stats().Refused == 0 {
				t.Fatal("refused counter not incremented")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Skip("could not provoke a 503 (handler won the race repeatedly)")
}

func TestGenerateLoad(t *testing.T) {
	cl, paths := startCluster(t, 2, 4, 2048, "sweb")
	res := cl.Generate(20, 2, func(i int, rng *rand.Rand) string {
		return paths[rng.Intn(len(paths))]
	}, 5)
	if res.Offered != 40 {
		t.Fatalf("offered = %d", res.Offered)
	}
	if res.Completed < 38 {
		t.Fatalf("completed = %d of %d (failed %d)", res.Completed, res.Offered, res.Failed)
	}
	if res.Mean <= 0 || res.Max < res.Mean {
		t.Fatalf("timing stats broken: mean=%v max=%v", res.Mean, res.Max)
	}
}

func TestStatsCounters(t *testing.T) {
	cl, paths := startCluster(t, 2, 2, 4096, "rr")
	client := cl.NewClient()
	for i := 0; i < 4; i++ {
		if _, err := client.Get(paths[i%len(paths)]); err != nil {
			t.Fatal(err)
		}
	}
	var served, bytesOut int64
	for _, srv := range cl.Servers {
		srv.Settle(0)
		s := srv.Stats()
		served += s.Served
		bytesOut += s.BytesOut
	}
	if served != 4 || bytesOut != 4*4096 {
		t.Fatalf("served=%d bytes=%d", served, bytesOut)
	}
}

func TestMaterializeSkipsCGI(t *testing.T) {
	st := storage.NewStore(1)
	st.MustAdd(storage.File{Path: "/cgi-bin/x.cgi", Size: 10, Owner: 0, CGI: true})
	st.MustAdd(storage.File{Path: "/real.dat", Size: 10, Owner: 0})
	dir := t.TempDir()
	if err := Materialize(st, dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "node0", "real.dat")); err != nil {
		t.Fatal("static file not materialized")
	}
	if _, err := os.Stat(filepath.Join(dir, "node0", "cgi-bin", "x.cgi")); err == nil {
		t.Fatal("CGI endpoint materialized as a file")
	}
}

func TestSWEBPolicyLiveEndToEnd(t *testing.T) {
	// A SWEB cluster under a small burst: everything completes, and the
	// load spreads across both nodes.
	cl, paths := startCluster(t, 2, 8, 16<<10, "sweb")
	res := cl.Generate(30, 2, func(i int, rng *rand.Rand) string {
		return paths[i%len(paths)]
	}, 6)
	if res.Failed > 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	if len(res.ByServer) < 2 {
		t.Fatalf("all requests landed on one server: %v", res.ByServer)
	}
}

func TestHonorsCoreParams(t *testing.T) {
	// MaxRedirects=0 disables re-scheduling even under file locality.
	st := storage.NewStore(2)
	storage.UniformSet(st, 2, 1024)
	p := core.DefaultParams()
	p.MaxRedirects = 0
	cl, err := Start(Options{
		Nodes: 2, Store: st, BaseDir: t.TempDir(),
		Policy: "fl", Params: p, HaveParams: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var owned1 string
	for _, pth := range st.Paths() {
		if o, _ := st.Owner(pth); o == 1 {
			owned1 = pth
		}
	}
	status, _, _ := directGet(t, cl.Servers[0].Addr(), owned1)
	if status != 200 {
		t.Fatalf("status = %d; MaxRedirects=0 should serve locally", status)
	}
}

func TestConditionalGETReturns304(t *testing.T) {
	cl, paths := startCluster(t, 1, 1, 4096, "rr")
	addr := cl.Servers[0].Addr()

	// First fetch: 200 with Last-Modified.
	status, hdr, body := directGet(t, addr, paths[0])
	if status != 200 || len(body) != 4096 {
		t.Fatalf("status=%d len=%d", status, len(body))
	}
	lastMod := hdr.Get("Last-Modified")
	if lastMod == "" {
		t.Fatal("no Last-Modified header")
	}

	// Revalidation: the same document with If-Modified-Since.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &httpmsg.Request{Method: "GET", Path: paths[0], Header: httpmsg.Header{}}
	req.Header.Set("If-Modified-Since", lastMod)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != httpmsg.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp.StatusCode)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(resp.Body))
	}

	// A stale browser copy gets the full document again.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	req2 := &httpmsg.Request{Method: "GET", Path: paths[0], Header: httpmsg.Header{}}
	req2.Header.Set("If-Modified-Since", httpmsg.FormatHTTPDate(time.Now().Add(-24*time.Hour)))
	if err := req2.Write(conn2); err != nil {
		t.Fatal(err)
	}
	resp2, err := httpmsg.ReadResponse(bufio.NewReader(conn2), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 200 || len(resp2.Body) != 4096 {
		t.Fatalf("stale revalidation: status=%d len=%d", resp2.StatusCode, len(resp2.Body))
	}
}

func TestRedirectPreservesQueryString(t *testing.T) {
	// Regression: the 302 Location used to be rebuilt as "?swebr=N" only,
	// so GET /doc?x=1 arrived at the target node stripped of x=1.
	cl, _ := startCluster(t, 2, 2, 4096, "fl")
	// The 302 only happens once node 0 sees node 1 as available.
	waitKnown(t, []int{0}, cl, 2, 5*time.Second)
	st := cl.store
	var pathOwnedBy1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			pathOwnedBy1 = p
		}
	}
	status, hdr, _ := directGet(t, cl.Servers[0].Addr(), pathOwnedBy1+"?x=1&y=2")
	if status != 302 {
		t.Fatalf("status = %d, want 302", status)
	}
	loc := hdr.Get("Location")
	if !strings.Contains(loc, "x=1&y=2") {
		t.Fatalf("Location %q dropped the client's query string", loc)
	}
	if !strings.Contains(loc, "swebr=1") {
		t.Fatalf("Location %q missing the redirect counter", loc)
	}
	// Following the location serves the document with the query intact.
	rest := strings.TrimPrefix(loc, "http://")
	slash := strings.IndexByte(rest, '/')
	status2, _, body := directGet(t, rest[:slash], rest[slash:])
	if status2 != 200 || len(body) != 4096 {
		t.Fatalf("redirect target: status=%d len=%d", status2, len(body))
	}
}

func TestRedirectedCGIKeepsQuery(t *testing.T) {
	// A CGI registered only at its owner is pinned, so force the redirect
	// shape with a static doc carrying an existing swebr param: the
	// counter must be replaced, never duplicated.
	cl, _ := startCluster(t, 2, 2, 4096, "fl")
	// The 302 only happens once node 0 sees node 1 as available.
	waitKnown(t, []int{0}, cl, 2, 5*time.Second)
	st := cl.store
	var pathOwnedBy1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			pathOwnedBy1 = p
		}
	}
	status, hdr, _ := directGet(t, cl.Servers[0].Addr(), pathOwnedBy1+"?swebr=0&k=v")
	if status != 302 {
		t.Fatalf("status = %d, want 302", status)
	}
	loc := hdr.Get("Location")
	if strings.Count(loc, "swebr=") != 1 {
		t.Fatalf("Location %q duplicated the redirect counter", loc)
	}
	if !strings.Contains(loc, "k=v") {
		t.Fatalf("Location %q dropped the surviving parameter", loc)
	}
}
