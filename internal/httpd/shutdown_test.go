package httpd

import (
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// TestShutdownDrainsKeepAliveClients: keep-alive clients, each holding a
// response whose header has arrived but whose body is still on the wire,
// see the node shut down gracefully. Shutdown must drain within its
// grace, and no response whose header arrived may end short — the
// in-flight bodies complete; afterwards a connection the drain closed is
// a clean refusal before any response byte, not a truncation. The body
// is 4 MiB: a 256 KiB one fits in the loopback socket buffers, so the
// server has finished writing before the drain begins and a Shutdown that
// cut connections at once would pass unseen.
func TestShutdownDrainsKeepAliveClients(t *testing.T) {
	const (
		size    = 4 << 20
		clients = 4
		doc     = "/big.dat"
	)
	st := storage.NewStore(1)
	st.MustAdd(storage.File{Path: doc, Size: size, Owner: 0})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "big.dat"), make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ID: 0, DocRoot: dir, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetPeers([]Peer{{ID: 0, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()}})
	srv.Start()

	// A small receive buffer keeps the server blocked mid-write until the
	// client reads, so the bodies really are in flight when the drain
	// begins.
	dial := func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			_ = c.(*net.TCPConn).SetReadBuffer(32 << 10)
		}
		return c, err
	}
	var full, short, refused atomic.Int64
	inFlight := make(chan struct{}, clients)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := httpmsg.NewPool(1, dial)
			defer pool.Close()
			for n := 0; ; n++ {
				c, resp, err := pool.RoundTrip(srv.Addr(), httpmsg.NewRequest("GET", doc, true), 5*time.Second)
				if err != nil {
					refused.Add(1) // no response byte arrived: the drain closed the door
					return
				}
				if n == 1 { // the second exchange rides the parked connection
					inFlight <- struct{}{}
					<-release
				}
				if err := c.ReadBody(resp, 0); err != nil || resp.StatusCode != httpmsg.StatusOK || len(resp.Body) != size {
					t.Errorf("response after its header: status %d, %d of %d bytes, err %v",
						resp.StatusCode, len(resp.Body), size, err)
					short.Add(1)
					return
				}
				full.Add(1)
			}
		}()
	}
	for i := 0; i < clients; i++ {
		<-inFlight
	}
	drained := make(chan bool, 1)
	go func() { drained <- srv.Shutdown(5 * time.Second) }()
	<-srv.draining
	close(release)
	if !<-drained {
		t.Fatal("Shutdown did not drain within its grace period")
	}
	wg.Wait()
	if short.Load() != 0 || refused.Load() != clients || full.Load() < 2*clients {
		t.Fatalf("full %d, short %d, refused %d: want every in-flight body whole and every client refused once",
			full.Load(), short.Load(), refused.Load())
	}
}
