package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"sweb/internal/metrics"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/trace"
	"sweb/internal/workload"
)

// epochUnix renders the cluster's shared trace epoch the way /sweb/trace
// advertises it.
func epochUnix(cl *Cluster) float64 {
	return float64(cl.Epoch().UnixNano()) / 1e9
}

// TestStitchedCrossNodeTrace is the acceptance scenario for distributed
// tracing: each node runs its own recorder (the distributed configuration),
// the client originates the trace, and a request redirected node 0 → node 1
// must come back from /sweb/trace scraping as ONE span carrying both nodes'
// events under a single trace id, with a positive measured t_redirection.
func TestStitchedCrossNodeTrace(t *testing.T) {
	const nodes = 2
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 4, 4096)
	cl, err := Start(Options{
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "fl",
		NodeTraces: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The 302 only happens once node 0 sees node 1 as available.
	waitKnown(t, []int{0, 1}, cl, nodes, 5*time.Second)

	// paths[1] lives on node 1; the rotation resolves the first request to
	// node 0, so file-locality must 302 the client across the cluster.
	clientRec := trace.NewRecorder(0)
	client := cl.NewClient()
	client.SetTrace(clientRec)
	res, err := client.Get(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || !res.Redirected {
		t.Fatalf("want redirected 200, got status %d redirected %v", res.Status, res.Redirected)
	}

	col, up := cl.ScrapeTraces()
	if up != nodes {
		t.Fatalf("scraped %d trace streams, want %d", up, nodes)
	}
	col.Add(epochUnix(cl), clientRec.Events())

	spans := col.Spans()
	if len(spans) != 1 {
		for _, sp := range spans {
			t.Logf("span %s: %v", sp.Trace, sp.Kinds())
		}
		t.Fatalf("stitched %d spans, want exactly 1", len(spans))
	}
	span := spans[0]
	if got := span.Nodes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("span touched nodes %v, want [0 1]", got)
	}
	counts := map[trace.Kind]int{}
	for _, k := range span.Kinds() {
		counts[k]++
	}
	if counts[trace.EvConnected] != 2 || counts[trace.EvRedirected] != 1 {
		t.Fatalf("span kinds %v: want 2 connected and 1 redirected", span.Kinds())
	}
	if counts[trace.EvIssued] != 1 || counts[trace.EvDelivered] != 1 {
		t.Fatalf("span kinds %v: want client-side issued and delivered", span.Kinds())
	}
	hop, ok := span.Redirection()
	if !ok || hop <= 0 {
		t.Fatalf("measured t_redirection = (%v, %v), want positive", hop, ok)
	}

	// The Chrome trace-event export of the stitched run must be valid JSON
	// in the schema Perfetto loads: slices, flow arrows for the cross-node
	// hop, and process-name metadata.
	var buf bytes.Buffer
	if err := trace.ExportChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("Chrome export has no traceEvents")
	}
	phases := map[string]int{}
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X", "s", "f", "i", "M":
			phases[ev.Ph]++
		default:
			t.Fatalf("unknown trace-event phase %q", ev.Ph)
		}
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("negative timestamp in %q", ev.Name)
		}
	}
	if phases["X"] == 0 {
		t.Fatal("export has no complete slices")
	}
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("cross-node hop produced no flow arrows: phases %v", phases)
	}
	if phases["M"] == 0 {
		t.Fatal("export has no process-name metadata")
	}

	// The live Table 5 must now cover the redirected request: the report
	// carries a redirect_hop row (the measured t_redirection histogram).
	rep, err := cl.Report()
	if err != nil {
		t.Fatal(err)
	}
	foundHop := false
	for _, p := range rep.Phases {
		if p.Phase == "redirect_hop" {
			foundHop = true
			if p.Count < 1 {
				t.Fatalf("redirect_hop count %v, want >= 1", p.Count)
			}
		}
	}
	if !foundHop {
		t.Fatalf("report phases %+v missing redirect_hop", rep.Phases)
	}
	if !strings.Contains(RenderReport(rep), "redirect_hop") {
		t.Fatal("rendered report does not print the redirect_hop row")
	}
}

// TestSimLiveParity is the differential test between the two substrates: a
// request for a foreign-owned document under file locality must produce the
// same lifecycle event-kind sequence whether it runs through the simulated
// Meiko or over real sockets.
func TestSimLiveParity(t *testing.T) {
	const nodes = 2
	want := []trace.Kind{
		trace.EvIssued, trace.EvResolved,
		trace.EvConnected, trace.EvParsed, trace.EvAnalyzed, trace.EvRedirected,
		trace.EvConnected, trace.EvParsed, trace.EvAnalyzed,
		trace.EvFetchLocal, trace.EvSent, trace.EvDelivered,
	}

	// Live: one shared recorder across nodes and client, one shared epoch.
	liveStore := storage.NewStore(nodes)
	livePaths := storage.UniformSet(liveStore, 4, 4096)
	rec := trace.NewRecorder(0)
	cl, err := Start(Options{
		Nodes: nodes, Store: liveStore, BaseDir: t.TempDir(), Policy: "fl",
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1}, cl, nodes, 5*time.Second)
	client := cl.NewClient()
	client.SetTrace(rec)
	if _, err := client.Get(livePaths[1]); err != nil {
		t.Fatal(err)
	}
	// The client holds the body before the serving node records "sent":
	// wait for both hops to be finalized before reading the stream.
	for _, srv := range cl.Servers {
		srv.Settle(1)
	}
	liveKinds := singleSpanKinds(t, rec, "live")

	// Sim: same topology, same policy, one arrival for the same document
	// placement; the rotation resolves it to node 0 on both substrates.
	simStore := storage.NewStore(nodes)
	simPaths := storage.UniformSet(simStore, 4, 4096)
	simRec := trace.NewRecorder(0)
	cfg := simsrv.MeikoConfig(nodes, simStore)
	cfg.Policy = simsrv.PolicyFileLocality
	cfg.Trace = simRec
	sim, err := simsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.RunSchedule([]workload.Arrival{{At: 0, Path: simPaths[1]}})
	if res.Redirects != 1 {
		t.Fatalf("sim run made %d redirects, want 1", res.Redirects)
	}
	simKinds := singleSpanKinds(t, simRec, "sim")

	if fmt.Sprint(liveKinds) != fmt.Sprint(simKinds) {
		t.Fatalf("event sequences diverge:\n live: %v\n  sim: %v", liveKinds, simKinds)
	}
	if fmt.Sprint(liveKinds) != fmt.Sprint(want) {
		t.Fatalf("both substrates agree but on the wrong sequence:\n got: %v\nwant: %v", liveKinds, want)
	}
}

// singleSpanKinds stitches one recorder's stream (already on one clock) and
// returns the lone span's event-kind sequence.
func singleSpanKinds(t *testing.T, rec *trace.Recorder, label string) []trace.Kind {
	t.Helper()
	col := trace.NewCollector()
	col.Add(0, rec.Events())
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("%s run produced %d spans, want 1", label, len(spans))
	}
	return spans[0].Kinds()
}

// TestGossipStalenessChaos asserts the gossip telemetry end to end over
// ScrapeMetrics: the broadcast-staleness gauge for a killed node must grow
// past the loadd timeout, and recover after the node restarts.
func TestGossipStalenessChaos(t *testing.T) {
	const (
		nodes        = 3
		dead         = 2
		loaddPeriod  = 50 * time.Millisecond
		loaddTimeout = 400 * time.Millisecond
	)
	st := storage.NewStore(nodes)
	storage.UniformSet(st, 6, 2048)
	cl, err := Start(Options{
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		LoaddPeriod:  loaddPeriod,
		LoaddTimeout: loaddTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, nodes, 5*time.Second)

	deadLabel := metrics.Labels{"peer": fmt.Sprint(dead)}
	// Healthy cluster: every survivor heard node 2 within roughly one
	// gossip period, and — once a second broadcast lands — the interval
	// histogram is populated.
	var samples []metrics.Sample
	up := 0
	intervalDeadline := time.Now().Add(5 * time.Second)
	for {
		samples, up = cl.ScrapeMetrics()
		if up == nodes && MetricValue(samples, "sweb_loadd_broadcast_interval_seconds_count", deadLabel) >= 1 {
			break
		}
		if time.Now().After(intervalDeadline) {
			t.Fatalf("no broadcast intervals observed for node %d (%d nodes up)", dead, up)
		}
		time.Sleep(loaddPeriod)
	}
	if v := MetricValue(samples, "sweb_loadd_broadcast_age_seconds", deadLabel); v < 0 || v > 2*float64(nodes) {
		t.Fatalf("baseline staleness for node %d = %v, want small and non-negative", dead, v)
	}
	if _, ok := metrics.Value(samples, "sweb_loadd_advertised_load",
		metrics.Labels{"peer": fmt.Sprint(dead), "facet": "cpu"}); !ok {
		t.Fatalf("advertised-load gauge for node %d missing", dead)
	}

	// Kill node 2 and let its rows go stale well past the loadd timeout.
	if err := cl.Kill(dead); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * loaddTimeout)
	samples, up = cl.ScrapeMetrics()
	if up != nodes-1 {
		t.Fatalf("scraped %d nodes after kill, want %d", up, nodes-1)
	}
	// The merged gauge sums both survivors' views; each alone must already
	// exceed the timeout, so the sum clears 2x comfortably.
	grown := MetricValue(samples, "sweb_loadd_broadcast_age_seconds", deadLabel)
	if grown < 2*loaddTimeout.Seconds() {
		t.Fatalf("staleness for killed node %d = %vs, want > %vs", dead, grown, 2*loaddTimeout.Seconds())
	}

	// Restart it in place; once gossip re-converges the staleness gauge
	// must fall back to the healthy range.
	if err := cl.Restart(dead); err != nil {
		t.Fatal(err)
	}
	waitKnown(t, []int{0, 1}, cl, nodes, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		samples, _ = cl.ScrapeMetrics()
		recovered := MetricValue(samples, "sweb_loadd_broadcast_age_seconds", deadLabel)
		if recovered >= 0 && recovered < grown/2 && recovered < 2*loaddTimeout.Seconds() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staleness for node %d stuck at %vs after restart (was %vs)", dead, recovered, grown)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
