package live

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sweb/internal/httpd"
	"sweb/internal/rebalance"
	"sweb/internal/storage"
)

// eager arms the controller on a single hot observation.
var eager = rebalance.Config{MaxReplicas: 2, BudgetPerTick: 1, HotShare: 0.5, CoolShare: 0.05, ForTicks: 1}

// startRebalanceCluster runs three nodes under round-robin with the cache
// off, so every request for a document a node does not hold is a relay.
func startRebalanceCluster(t *testing.T) (*Cluster, *storage.Store, string, []httpd.Peer) {
	t.Helper()
	st := storage.NewStore(3)
	paths := storage.UniformSet(st, 3, 4096)
	base := t.TempDir()
	cl, err := Start(Options{Nodes: 3, Store: st, BaseDir: base, Policy: "rr", CacheOff: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	peers := make([]httpd.Peer, len(cl.Servers))
	for i, srv := range cl.Servers {
		peers[i] = httpd.Peer{ID: i, HTTPAddr: srv.Addr()}
	}
	return cl, st, paths[0], peers
}

// TestRebalancerBroadcastsAddThenDrop runs the leader loop against a live
// cluster: the tick scrapes every node's heat and asks for the hot
// document on the node landing its traffic; applying that add makes the
// gaining node materialize the file and serve it without a relay; a drop
// then reverts the placement and the relays come back.
func TestRebalancerBroadcastsAddThenDrop(t *testing.T) {
	cl, st, doc, peers := startRebalanceCluster(t)
	owner, _ := st.Owner(doc)
	gain := (owner + 1) % 3
	client := cl.NewClient()
	defer client.Close()
	relays := func() int64 { return cl.Servers[gain].Stats().InternalFetch }
	fetch := func() []byte {
		t.Helper()
		res, err := client.GetVia(gain, doc)
		if err != nil || res.Status != 200 || len(res.Body) != 4096 {
			t.Fatalf("fetch via node %d: res=%+v err=%v", gain, res, err)
		}
		return res.Body
	}
	for i := 0; i < 4; i++ {
		fetch()
	}
	if got := relays(); got != 4 {
		t.Fatalf("relays before the add = %d, want 4", got)
	}
	cl.Servers[gain].Settle(4) // the heat sketch is fed as each request finishes

	rb := NewRebalancer(eager, st, peers)
	acts, up := rb.Tick()
	if len(up) != 3 {
		t.Fatalf("tick reached %v, want all 3 nodes", up)
	}
	if len(acts) != 1 || acts[0].Kind != "add" || acts[0].Path != doc || acts[0].Node != gain {
		t.Fatalf("tick actions = %+v, want add %s@%d", acts, doc, gain)
	}
	if errs := rb.Apply(acts, up); len(errs) != 0 {
		t.Fatalf("apply add: %v", errs)
	}
	onDisk := filepath.Join(cl.cfgs[gain].DocRoot, filepath.FromSlash(strings.TrimPrefix(doc, "/")))
	local, err := os.ReadFile(onDisk)
	if err != nil {
		t.Fatalf("gaining node did not materialize the file: %v", err)
	}
	if f, _ := st.Lookup(doc); !f.HasReplica(gain) {
		t.Fatalf("replica set after add = %v, want node %d in it", st.Replicas(doc), gain)
	}
	before := relays()
	if body := fetch(); !bytes.Equal(body, local) {
		t.Fatal("served bytes differ from the materialized copy")
	}
	if got := relays(); got != before {
		t.Fatalf("fetch after the add relayed (%d -> %d internal fetches)", before, got)
	}

	drop := []rebalance.Action{{Kind: "drop", Path: doc, Node: gain}}
	if errs := rb.Apply(drop, up); len(errs) != 0 {
		t.Fatalf("apply drop: %v", errs)
	}
	if f, _ := st.Lookup(doc); f.HasReplica(gain) {
		t.Fatalf("replica set after drop = %v, still holds node %d", st.Replicas(doc), gain)
	}
	if _, err := os.Stat(onDisk); !os.IsNotExist(err) {
		t.Fatalf("dropped copy still on disk: %v", err)
	}
	fetch()
	if got := relays(); got != before+1 {
		t.Fatalf("fetch after the drop: internal fetches %d -> %d, want a relay", before, got)
	}
}

// TestStartRebalancerReplicatesHotDocument: the in-process cluster runs
// the same leader loop on a ticker, and a document drawing all the
// traffic through one non-owner gains a replica there.
func TestStartRebalancerReplicatesHotDocument(t *testing.T) {
	cl, st, doc, _ := startRebalanceCluster(t)
	owner, _ := st.Owner(doc)
	gain := (owner + 2) % 3
	client := cl.NewClient()
	defer client.Close()
	for i := 0; i < 4; i++ {
		if res, err := client.GetVia(gain, doc); err != nil || res.Status != 200 {
			t.Fatalf("fetch %d: res=%+v err=%v", i, res, err)
		}
	}
	cl.Servers[gain].Settle(4)
	cl.StartRebalancer(eager, 20*time.Millisecond)
	defer cl.StopRebalancer()
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if f, _ := st.Lookup(doc); f.HasReplica(gain) {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("no replica on node %d within 5s: replicas %v", gain, st.Replicas(doc))
		}
	}
}
