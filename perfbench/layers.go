package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"

	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/oracle"
	"sweb/internal/trace"
)

var nan = math.NaN()

// Replay measurements time a layer's public function on the workload's
// own inputs, in this process, and report ns and allocations per call.
// In-situ measurements read the counters the program publishes. The
// roll-up multiplies the two: replay cost × calls per request.

// replayOps is the number of calls per replay repetition; replayReps
// repetitions are made and the median kept.
const (
	replayOps  = 20000
	replayReps = 5
)

// opCost times fn over replayOps calls, replayReps times, returning the
// median ns per call and the allocations per call.
func opCost(fn func(i int)) (ns, allocs float64) {
	var nsReps []float64
	for rep := 0; rep < replayReps; rep++ {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		for i := 0; i < replayOps; i++ {
			fn(rep*replayOps + i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&b)
		nsReps = append(nsReps, float64(el.Nanoseconds())/replayOps)
		allocs = float64(b.Mallocs-a.Mallocs) / replayOps
	}
	return median(nsReps), allocs
}

// replayInputs are the workload's requests as the layers see them.
type replayInputs struct {
	reqBytes [][]byte // each request exactly as the client sends it
	paths    []string
	sizes    map[string]int64
	owners   map[string]int
	arrived  []int // node each request landed on
	loads    []core.NodeLoad
	cacheCap int64
}

// replayInputsFromLive builds the inputs from a live schedule; loads are
// the advertised load vectors scraped from the nodes.
func replayInputsFromLive(w workloadCfg, c *corpus, sched []request, addrs []string, snaps []nodeSnap) replayInputs {
	in := replayInputs{
		sizes: map[string]int64{}, owners: map[string]int{}, cacheCap: w.CacheBytes,
	}
	for _, d := range c.docs {
		in.sizes[d.path], in.owners[d.path] = d.size, d.owner
	}
	n := min(len(sched), 4096)
	for _, r := range sched[:n] {
		p := c.docs[r.doc].path
		in.paths = append(in.paths, p)
		in.arrived = append(in.arrived, r.node)
		in.reqBytes = append(in.reqBytes,
			[]byte("GET "+p+" HTTP/1.1\r\nHost: "+addrs[r.node]+"\r\n\r\n"))
	}
	in.loads = make([]core.NodeLoad, w.Nodes)
	for i := range in.loads {
		in.loads[i] = core.NodeLoad{Available: true, CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 5e6}
	}
	for i, s := range snaps {
		for peer := range in.loads {
			if peer == i {
				continue
			}
			lbl := func(f string) metrics.Labels { return metrics.Labels{"peer": fmt.Sprint(peer), "facet": f} }
			cpu, _ := metrics.Value(s.samples, "sweb_loadd_advertised_load", lbl("cpu"))
			disk, _ := metrics.Value(s.samples, "sweb_loadd_advertised_load", lbl("disk"))
			netl, _ := metrics.Value(s.samples, "sweb_loadd_advertised_load", lbl("net"))
			in.loads[peer].CPULoad, in.loads[peer].DiskLoad, in.loads[peer].NetLoad = cpu, disk, netl
		}
	}
	return in
}

// replayInputsFromPaths builds the inputs from the simulator's request
// paths: uniform sizes, round-robin owners, idle loads.
func replayInputsFromPaths(paths []string, nodes int, size int64) replayInputs {
	in := replayInputs{sizes: map[string]int64{}, owners: map[string]int{}, cacheCap: 64 << 20}
	n := min(len(paths), 4096)
	for i, p := range paths[:n] {
		in.paths = append(in.paths, p)
		in.arrived = append(in.arrived, i%nodes)
		in.reqBytes = append(in.reqBytes, []byte("GET "+p+" HTTP/1.1\r\nHost: sim\r\n\r\n"))
	}
	for i, p := range paths {
		if _, ok := in.sizes[p]; !ok {
			in.sizes[p], in.owners[p] = size, i%nodes
		}
	}
	in.loads = make([]core.NodeLoad, nodes)
	for i := range in.loads {
		in.loads[i] = core.NodeLoad{Available: true, CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 5e6}
	}
	return in
}

// replaySink keeps replayed results alive so the calls are not elided.
var replaySink any

// replayLayers times every replayed layer on in.
func replayLayers(res *results, in replayInputs) {
	n := len(in.paths)

	// httpmsg.ReadRequest over the exact request bytes, many per reader.
	stream := bytes.Join(in.reqBytes, nil)
	br := bufio.NewReader(bytes.NewReader(stream))
	ns, al := opCost(func(i int) {
		if i%n == 0 {
			br.Reset(bytes.NewReader(stream))
		}
		req, err := httpmsg.ReadRequest(br)
		if err != nil {
			panic(err) // the replayed bytes are the client's own requests
		}
		replaySink = req
	})
	res.set("httpmsg.read_request_ns", ns, "ns")
	res.set("httpmsg.read_request_allocs", al, "count")

	// The response header exactly as the server builds and writes it.
	bw := bufio.NewWriter(io.Discard)
	mod := time.Unix(1_700_000_000, 0)
	ns, al = opCost(func(i int) {
		p := in.paths[i%n]
		h := httpmsg.Header{}
		h.Set("Content-Type", httpmsg.ContentTypeFor(p))
		h.Set("Content-Length", strconv.FormatInt(in.sizes[p], 10))
		h.Set("Last-Modified", httpmsg.FormatHTTPDate(mod))
		h.Set("Connection", "keep-alive")
		if err := httpmsg.WriteProtoResponseHeader(bw, "HTTP/1.1", 200, h); err != nil {
			panic(err)
		}
	})
	res.set("httpmsg.write_header_ns", ns, "ns")
	res.set("httpmsg.write_header_allocs", al, "count")

	// SWEB.Choose with the oracle's characterization, as the handler calls it.
	params := core.DefaultParams()
	pol := core.NewSWEB(params)
	orc := oracle.New(oracle.DefaultDemand())
	reqs := make([]core.Request, n)
	for i, p := range in.paths {
		d := orc.Characterize(p)
		size := in.sizes[p]
		reqs[i] = core.Request{
			Path: p, Size: size, Owner: in.owners[p],
			Ops: d.Ops(size), DiskBytes: d.DiskBytes(size),
			Arrived: in.arrived[i], CachedLocal: i%2 == 0,
		}
	}
	ns, al = opCost(func(i int) {
		replaySink = pol.Choose(reqs[i%n], in.arrived[i%n], in.loads)
	})
	res.set("core.choose_ns", ns, "ns")
	res.set("core.choose_allocs", al, "count")

	// cache.Lookup at the nodes' capacity, filled in request order.
	ch := cache.New(in.cacheCap)
	for _, p := range in.paths {
		if size := in.sizes[p]; size <= in.cacheCap && !ch.Peek(p) {
			ch.Insert(cache.Entry{Path: p, Body: make([]byte, size), ModTime: mod})
		}
	}
	ns, al = opCost(func(i int) {
		p := in.paths[i%n]
		size := in.sizes[p]
		e, _ := ch.Lookup(p, func(ent cache.Entry) bool { return int64(len(ent.Body)) == size })
		replaySink = e.Path
	})
	res.set("cache.lookup_ns", ns, "ns")
	res.set("cache.lookup_allocs", al, "count")

	sk := heat.New(heat.Config{})
	ns, al = opCost(func(i int) {
		p := in.paths[i%n]
		sk.Observe(heat.Observation{Path: p, Owner: in.owners[p], Bytes: in.sizes[p],
			Relay: in.owners[p] != in.arrived[i%n], Seconds: 1e-4})
	})
	res.set("heat.observe_ns", ns, "ns")
	res.set("heat.observe_allocs", al, "count")

	fr := flight.New(flight.Config{})
	ns, al = opCost(func(i int) {
		p := in.paths[i%n]
		fr.Add(flight.Record{Path: p, Status: 200, Bytes: in.sizes[p], Target: in.arrived[i%n],
			Policy: "SWEB", PredictedSeconds: 1e-3, ParseSeconds: 1e-5, AnalyzeSeconds: 1e-5,
			TTFBSeconds: 1e-4, TotalSeconds: 2e-4})
	})
	res.set("flight.add_ns", ns, "ns")
	res.set("flight.add_allocs", al, "count")

	rec := trace.NewRecorder(2 * replayOps * replayReps)
	tid := rec.NewRequest()
	ns, al = opCost(func(i int) {
		rec.Record(tid, float64(i)*1e-6, trace.EvParsed, 0, "path="+in.paths[i%n])
	})
	res.set("trace.record_ns", ns, "ns")
	res.set("trace.record_allocs", al, "count")

	reg := metrics.NewRegistry()
	kinds := []trace.Kind{trace.EvConnected, trace.EvParsed, trace.EvAnalyzed, trace.EvFetchLocal, trace.EvSent}
	ns, al = opCost(func(i int) {
		reg.Counter("sweb_events_total", "request lifecycle events by trace kind",
			metrics.Labels{"event": string(kinds[i%len(kinds)])}).Inc()
	})
	res.set("metrics.labelled_inc_ns", ns, "ns")
	res.set("metrics.labelled_inc_allocs", al, "count")
}

// psReplay times one PSResource submit-to-completion with jobs other jobs
// active (each too long to finish during the replay).
func psReplay(jobs int) float64 {
	sim := des.New()
	r := des.NewPSResource(sim, "replay", 1e6)
	for j := 0; j < jobs; j++ {
		r.Submit(1e18, nil)
	}
	done := 0
	ns, _ := opCost(func(int) {
		want := done + 1
		r.Submit(1, func() { done++ })
		for done < want && sim.Step() {
		}
	})
	return ns
}

// familySum sums every instance of a family over the window, across nodes.
func familySum(before, after []nodeSnap, name string) float64 {
	sum := func(snaps []nodeSnap) float64 {
		var t float64
		for _, s := range snaps {
			for _, smp := range s.samples {
				if smp.Name == name {
					t += smp.Value
				}
			}
		}
		return t
	}
	return sum(after) - sum(before)
}

func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// inSituLayers reads the per-layer counters both substrates publish under
// the same metric families, as deltas over the window, per client request.
func inSituLayers(res *results, before, after []nodeSnap, reqs float64) {
	phase := func(p string) float64 {
		return histMeanDelta(before, after, "sweb_phase_seconds", metrics.Labels{"phase": p}) * 1e6
	}
	phaseN := func(p string) float64 {
		return counterDelta(before, after, "sweb_phase_seconds_count", metrics.Labels{"phase": p})
	}
	res.set("core.redirect_frac", frac(familySum(before, after, "sweb_redirect_targets_total"), reqs), "fraction")
	res.set("core.pred_abs_err_ms", histMeanDelta(before, after, "sweb_sched_abs_error_seconds", nil)*1e3, "ms")
	hits := counterDelta(before, after, "sweb_cache_hits_total", nil)
	misses := counterDelta(before, after, "sweb_cache_misses_total", nil)
	res.set("cache.hit_frac", frac(hits, hits+misses), "fraction")
	res.set("cache.evictions_per_kreq", 1000*frac(counterDelta(before, after, "sweb_cache_evictions_total", nil), reqs), "count")
	res.set("httpd.parse_us", phase("parse"), "us")
	res.set("httpd.analyze_us", phase("analyze"), "us")
	res.set("httpd.fetch_local_us", phase("fetch_local"), "us")
	res.set("httpd.fetch_nfs_us", phase("fetch_nfs"), "us")
	res.set("httpd.redirect_hop_us", phase("redirect_hop"), "us")
	res.set("httpd.ttfb_us", histMeanDelta(before, after, "sweb_ttfb_seconds", nil)*1e6, "us")
	local, nfs := phaseN("fetch_local"), phaseN("fetch_nfs")
	res.set("httpd.relay_frac", frac(nfs, local+nfs), "fraction")
	dials := counterDelta(before, after, "sweb_upstream_dials_total", nil)
	reused := counterDelta(before, after, "sweb_upstream_reused_total", nil)
	res.set("httpd.upstream_reuse_frac", frac(reused, dials+reused), "fraction")
	res.set("httpd.reqs_per_conn", histMeanDelta(before, after, "sweb_keepalive_requests_per_conn", nil), "count")

	// Calls per client request for the roll-up.
	// Every client-facing request is parsed once, and so is every internal
	// fetch a relay sends to the owner (the simulator has none).
	parsed := counterDelta(before, after, "sweb_events_total", metrics.Labels{"event": "parsed"})
	for i := range after {
		parsed += float64(after[i].stats.InternalFetch - before[i].stats.InternalFetch)
	}
	res.set("calls.core_per_req", frac(counterDelta(before, after, "sweb_events_total", metrics.Labels{"event": "analyzed"}), reqs), "count")
	res.set("calls.cache_per_req", frac(hits+misses, reqs), "count")
	res.set("calls.heat_per_req", frac(familySum(before, after, "sweb_heat_observations_total"), reqs), "count")
	res.set("calls.flight_per_req", frac(familySum(before, after, "sweb_flight_records_total"), reqs), "count")
	labelled := familySum(before, after, "sweb_events_total") + familySum(before, after, "sweb_phase_seconds_count") +
		familySum(before, after, "sweb_redirect_targets_total") + familySum(before, after, "sweb_drops_total")
	res.set("calls.metrics_per_req", frac(labelled, reqs), "count")
	res.set("calls.httpmsg_per_req", frac(parsed, reqs), "count")
}

// rollUp fills layer.<module>.ns_per_req = replay ns per call × calls per
// request, and the remainder of cpuNsPerReq no layer explains.
func rollUp(res *results, cpuNsPerReq float64) {
	get := func(k string) float64 { return res.vals[k].v }
	layers := map[string]float64{
		"httpmsg": get("calls.httpmsg_per_req") * (get("httpmsg.read_request_ns") + get("httpmsg.write_header_ns")),
		"core":    get("calls.core_per_req") * get("core.choose_ns"),
		"cache":   get("calls.cache_per_req") * get("cache.lookup_ns"),
		"heat":    get("calls.heat_per_req") * get("heat.observe_ns"),
		"flight":  get("calls.flight_per_req") * get("flight.add_ns"),
		"trace":   get("calls.trace_per_req") * get("trace.record_ns"),
		"metrics": get("calls.metrics_per_req") * get("metrics.labelled_inc_ns"),
	}
	explained := 0.0
	for m, v := range layers {
		res.set("layer."+m+".ns_per_req", v, "ns")
		explained += v
	}
	res.set("layer.unexplained.ns_per_req", cpuNsPerReq-explained, "ns")
}
