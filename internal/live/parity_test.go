package live

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sweb/internal/des"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/monitor"
	"sweb/internal/observe"
	"sweb/internal/simsrv"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// observed is what one substrate's run leaves behind for the parity
// checks: every node's flight and heat dumps, and a monitor whose store
// holds the scraped sweb_* families.
type observed struct {
	name   string
	flight []flight.Dump
	heat   []heat.Dump
	mon    *monitor.Monitor
}

// missingPath is requested once on each substrate, guaranteeing a notable
// flight record and a client-caused drop.
const missingPath = "/no-such-file.html"

// simObserved drives the DES: a 3-node Meiko cluster serving 12 × 32 KiB
// documents at 20 rps for 5 s (seed 7) plus one 404, with a monitor
// collecting every virtual second.
func simObserved(t *testing.T) observed {
	t.Helper()
	st := storage.NewStore(3)
	paths := storage.UniformSet(st, 12, 32*1024)
	cl, err := simsrv.New(simsrv.MeikoConfig(3, st))
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{Window: 5})
	for i := 0; i < cl.Nodes(); i++ {
		i := i
		mon.AddSource(&monitor.RegistrySource{
			Name:     strconv.Itoa(i),
			Registry: cl.Registry(i),
			Up:       func() bool { return cl.NodeUp(i) },
		})
	}
	cl.Every(des.Second, func() { mon.Collect(cl.Sim.Now().ToSeconds()) })
	burst := workload.Burst{RPS: 20, DurationSeconds: 5, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	arr = append(arr, workload.Arrival{At: des.Second, Path: missingPath})
	if res := cl.RunSchedule(arr); res.Completed == 0 {
		t.Fatal("simulated burst completed nothing")
	}
	o := observed{name: "sim", mon: mon}
	for i := 0; i < cl.Nodes(); i++ {
		o.flight = append(o.flight, cl.FlightDump(i))
		o.heat = append(o.heat, cl.HeatDump(i))
	}
	return o
}

// liveObserved drives a 2-node live cluster through three rounds over 8
// documents plus one 404, with the cluster-owned monitor scraping, and
// reads every node's /sweb/flight and /sweb/heat.
func liveObserved(t *testing.T) observed {
	t.Helper()
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 8, 4096)
	cl, err := Start(Options{
		Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		LoaddPeriod: 50 * time.Millisecond,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mon := cl.StartMonitor(monitor.Config{Window: 2}, 50*time.Millisecond)
	client := cl.NewClient()
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			if res, err := client.Get(p); err != nil || res.Status != 200 {
				t.Fatalf("get %s: res=%+v err=%v", p, res, err)
			}
		}
		time.Sleep(60 * time.Millisecond)
	}
	if res, err := client.Get(missingPath); err != nil || res.Status != 404 {
		t.Fatalf("404 get: res=%+v err=%v", res, err)
	}
	waitRounds := time.Now().Add(5 * time.Second)
	for mon.Rounds() < 3 && time.Now().Before(waitRounds) {
		time.Sleep(20 * time.Millisecond)
	}
	cl.StopMonitor()
	// A client holds its response before the node files the record.
	for _, srv := range cl.Servers {
		srv.Settle(0)
	}
	o := observed{name: "live", mon: mon}
	for _, srv := range cl.Servers {
		fd, err := Flight(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hd, err := Heat(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		o.flight = append(o.flight, *fd)
		o.heat = append(o.heat, *hd)
	}
	return o
}

// coreFamilies are the sweb_* metric families both substrates must
// publish for one monitor pipeline to serve them interchangeably.
var coreFamilies = []string{
	observe.Inflight, observe.Capacity, observe.DiskActive, observe.NetActive,
	observe.BytesOut, observe.Events,
	observe.Phases + "_bucket", observe.Phases + "_count", observe.Phases + "_sum",
	observe.Response + "_bucket", observe.Response + "_count", observe.Response + "_sum",
	observe.TTFB + "_bucket", observe.TTFB + "_count", observe.TTFB + "_sum",
	observe.GossipAge, observe.GossipAdvertised,
	observe.CacheHits, observe.CacheMisses, observe.CacheEvictions, observe.CacheShared,
	observe.CacheBytes, observe.CacheCapacity,
	observe.FlightRecords, observe.FlightNotable,
}

// TestSimLiveObservabilityParity is the one sim+live fixture behind the
// shared observer: the same flight renderer, heat advisor, monitor
// reports and SLO engine must serve a DES run and a live run, and both
// must obey the same accounting invariants.
func TestSimLiveObservabilityParity(t *testing.T) {
	runs := []observed{simObserved(t), liveObserved(t)}
	var csvHeaders []string
	for _, o := range runs {
		checkFlight(t, o)
		checkHeat(t, o)
		csvHeaders = append(csvHeaders, checkMonitor(t, o))
		checkSLO(t, o)
	}
	if csvHeaders[0] != csvHeaders[1] {
		t.Fatalf("timeline headers differ:\nsim:  %s\nlive: %s", csvHeaders[0], csvHeaders[1])
	}
}

// checkFlight: every request left a well-formed record, the 404 reached
// the notable ring, a healthy served record carries its placement, and
// the shared renderer draws the timeline.
func checkFlight(t *testing.T, o observed) {
	t.Helper()
	all := flight.Merge(o.flight, false)
	if len(all) == 0 {
		t.Fatalf("%s: no flight records", o.name)
	}
	notable := flight.Merge(o.flight, true)
	if len(notable) == 0 {
		t.Fatalf("%s: notable ring empty despite a 404", o.name)
	}
	served := false
	for _, r := range all {
		if r.TotalSeconds < 0 {
			t.Errorf("%s: negative total in %+v", o.name, r)
		}
		if r.TTFBSeconds != -1 && (r.TTFBSeconds < 0 || r.TTFBSeconds > r.TotalSeconds+1e-9) {
			t.Errorf("%s: ttfb %v outside [0,total=%v] for %s", o.name, r.TTFBSeconds, r.TotalSeconds, r.Path)
		}
		if r.Seq <= 0 {
			t.Errorf("%s: unassigned seq in %+v", o.name, r)
		}
		if r.Status == 200 && r.Policy != "" && r.Notable == "" {
			served = true
			if r.Target < 0 {
				t.Errorf("%s: served record without a target: %+v", o.name, r)
			}
		}
		if r.Path == missingPath && (r.Status != 404 || r.Drop != "not_found" || r.Notable != flight.NotableError) {
			t.Errorf("%s: 404 record = %+v", o.name, r)
		}
	}
	if !served {
		t.Fatalf("%s: no served 200 record", o.name)
	}
	out := flight.RenderRecords(o.name+" flight", all)
	if !strings.Contains(out, "path") || !strings.Contains(out, "ttfb") {
		t.Fatalf("%s: renderer output missing headers:\n%s", o.name, out)
	}
}

// checkHeat: each node's sketch accounts for every observation (fewer
// distinct paths than K, so nothing was evicted), the merge keeps them,
// and the renderer and advisor work on the result.
func checkHeat(t *testing.T, o observed) {
	t.Helper()
	var total uint64
	for _, d := range o.heat {
		if !d.Enabled {
			t.Fatalf("%s: node %d heat dump disabled", o.name, d.Node)
		}
		total += d.Total
		var counted uint64
		for _, e := range d.Entries {
			counted += e.Count
			if e.Relays > e.Count || e.Misses > e.Count {
				t.Errorf("%s: aux counts exceed requests in %+v", o.name, e)
			}
			if e.LatencySum < 0 || e.Bytes < 0 {
				t.Errorf("%s: negative accumulator in %+v", o.name, e)
			}
			if e.Path == missingPath {
				t.Errorf("%s: a 404 reached the heat sketch: %+v", o.name, e)
			}
		}
		if counted != d.Total {
			t.Errorf("%s: node %d tracked %d of %d observations", o.name, d.Node, counted, d.Total)
		}
	}
	if total == 0 {
		t.Fatalf("%s: no heat observations", o.name)
	}
	m := heat.Merge(o.heat)
	if m.Total != total || len(m.Entries) == 0 {
		t.Fatalf("%s: merge lost observations: %+v", o.name, m)
	}
	out := heat.Render(o.name+" heat", m, 0)
	if !strings.Contains(out, "path") || !strings.Contains(out, "relays") {
		t.Fatalf("%s: renderer output missing headers:\n%s", o.name, out)
	}
	if advs := heat.Advise(m); len(advs) == 0 {
		t.Fatalf("%s: advisor returned nothing", o.name)
	}
}

// checkMonitor: the core families reached the monitor's store, the
// timeline CSV has data and a renderable snapshot, traffic was seen, and
// every phase cell comes from the shared vocabulary. It returns the CSV
// header, which must match across substrates.
func checkMonitor(t *testing.T, o observed) string {
	t.Helper()
	have := make(map[string]bool)
	for _, n := range o.mon.Store().Names() {
		have[n] = true
	}
	for _, fam := range coreFamilies {
		if !have[fam] {
			t.Errorf("%s: store missing family %s", o.name, fam)
		}
	}
	var b strings.Builder
	if err := o.mon.WriteTimelineCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: timeline CSV has no data rows:\n%s", o.name, b.String())
	}
	snap := o.mon.Snapshot()
	if len(snap.Nodes) == 0 {
		t.Fatalf("%s: snapshot has no node rows", o.name)
	}
	if out := monitor.RenderSnapshot(snap); !strings.Contains(out, "Nodes") || !strings.Contains(out, "req/s") {
		t.Fatalf("%s: rendered snapshot missing node table:\n%s", o.name, out)
	}
	sawReq := false
	for _, r := range o.mon.Timeline() {
		sawReq = sawReq || r.ReqRate > 0
	}
	if !sawReq {
		t.Fatalf("%s: timeline never saw a positive request rate", o.name)
	}
	known := make(map[string]bool)
	for _, ph := range observe.PhaseNames {
		known[ph] = true
	}
	phases := 0
	for _, s := range o.mon.Store().Select(observe.Phases+"_count", nil) {
		if ph := s.Labels["phase"]; ph != "" {
			phases++
			if !known[ph] {
				t.Errorf("%s: unknown phase cell %q", o.name, ph)
			}
		}
	}
	if phases == 0 {
		t.Fatalf("%s: no phase cells", o.name)
	}
	return lines[0]
}

// checkSLO: the same declarative objectives evaluated against the
// substrate's store see traffic, burn no budget on a healthy run (the 404
// is the client's fault), and the burn-rate rules evaluate to zero.
func checkSLO(t *testing.T, o observed) {
	t.Helper()
	objs, err := slo.ParseObjectives("avail=99.9,p99=10s")
	if err != nil {
		t.Fatal(err)
	}
	var nodes []string
	now := 0.0
	for _, s := range o.mon.Store().Select(observe.Response+"_count", nil) {
		if n := s.Labels["node"]; n != "" {
			nodes = append(nodes, n)
		}
		if p, ok := monitor.Latest(s.Points); ok && p.T > now {
			now = p.T
		}
	}
	sort.Strings(nodes)
	r := slo.Evaluate(o.mon.Store(), nodes, objs, now, now)
	if r.Breached() {
		t.Fatalf("%s: healthy run breached SLO: %+v", o.name, r.Objectives)
	}
	for _, s := range r.Objectives {
		if s.Total == 0 {
			t.Fatalf("%s: objective %s saw no traffic", o.name, s.Objective.Name)
		}
		if s.Errors != 0 {
			t.Fatalf("%s: objective %s charged %v errors on a healthy run", o.name, s.Objective.Name, s.Errors)
		}
	}
	rules := slo.Rules(objs, slo.Windows{FastLong: now, FastShort: now / 2, SlowLong: now, SlowShort: now / 2})
	view := &monitor.View{Store: o.mon.Store(), Nodes: nodes, From: 0, To: now}
	for _, rule := range rules {
		for subject, burn := range rule.Eval(view) {
			if burn != 0 {
				t.Errorf("%s: rule %s subject %s burns %v on a healthy run", o.name, rule.Name, subject, burn)
			}
		}
	}
}
