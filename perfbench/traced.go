package main

import (
	"slices"
	"time"

	"sweb/internal/trace"
)

// overheadParts is how many windows each half of a traced run is cut
// into, so trace.overhead_pct comes with the untraced side's own
// window-to-window range beside it.
const overheadParts = 3

// runLiveTraced is a live workload's traced run. The first half of the
// window runs untraced and gives the in-situ layer counters and the
// baseline; the second half runs on a cluster started with -trace-out,
// every request carrying its own trace id, and gives the span table, the
// tracing overhead and the CPU the roll-up divides (the traced cluster is
// the one that runs every layer, the trace recorder included). The
// replays run last, on the workload's inputs.
func runLiveTraced(o options, w workloadCfg, c *corpus, sched []request, dir string) (*results, error) {
	res := newResults()
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	plain, err := setupLive(o, w, c, sched, 0, dir+"/plain", false)
	if err != nil {
		return nil, err
	}
	winsA, beforeA, afterA, err := plain.timed(half, overheadParts, false)
	addrs := plain.cl.addrs
	plain.close()
	if err != nil {
		return nil, err
	}
	csA := summarize(winsA, w)
	if err := checkLate(csA, w); err != nil {
		return nil, err
	}
	res.attempted, res.failed = int64(csA.attempted), int64(csA.failed)
	res.correct = csA.wrong == 0
	reqs := float64(csA.nLat)
	res.set("host.steal_frac", meanSteal(winsA), "fraction")
	tot := serverTotals(beforeA, afterA)
	inSituLayers(res, beforeA, afterA, reqs)
	res.set("httpd.write_syscalls_per_req", float64(tot.syscw)/reqs, "count")
	res.set("httpd.read_syscalls_per_req", float64(tot.syscr)/reqs, "count")
	res.set("httpd.ctx_switches_per_req", float64(tot.ctxSwitch)/reqs, "count")
	res.set("httpd.gc_pause_us_per_req",
		counterDelta(beforeA, afterA, "sweb_gc_pause_seconds_total", nil)*1e6/reqs, "us")
	res.set("loadgen.cpu_us_per_req", csA.cpuPerReq, "us")
	if w.Loop == "open" {
		res.set("loadgen.late_p99_ms", csA.lateP99, "ms")
	} else {
		notExercised(res, map[string]string{"loadgen.late_p99_ms": "ms"}) // no schedule to be late for
	}
	res.set("server_cpu_us_per_req", float64(tot.cpuTicks)*1e6/clockTicks/reqs, "us")
	res.set("rps", csA.rps, "1/s")
	res.setN("lat_p50_ms", csA.latP50, "ms", csA.nLat)

	traced, err := setupLive(o, w, c, sched, plain.next, dir+"/traced", true)
	if err != nil {
		return nil, err
	}
	winsB, beforeB, afterB, err := traced.timed(half, overheadParts, true)
	var dumps []nodeEvents
	if err == nil {
		dumps, err = collectEvents(traced.cl)
	}
	traced.close()
	if err != nil {
		return nil, err
	}
	csB := summarize(winsB, w)
	if err := checkLate(csB, w); err != nil {
		return nil, err
	}
	res.attempted += int64(csB.attempted)
	res.failed += int64(csB.failed)
	res.correct = res.correct && csB.wrong == 0
	cpuNsB := float64(serverTotals(beforeB, afterB).cpuTicks) * 1e9 / clockTicks / float64(max(csB.nLat, 1))
	res.set("traced.server_cpu_us_per_req", cpuNsB/1e3, "us")
	res.set("traced.rps", csB.rps, "1/s")
	res.setN("traced.lat_p50_ms", csB.latP50, "ms", csB.nLat)
	overhead(res, w, winsA, winsB)
	var traceEvents float64
	for i := range afterB {
		traceEvents += float64(afterB[i].traceEvents - beforeB[i].traceEvents)
	}
	res.set("calls.trace_per_req", traceEvents/float64(max(csB.nLat, 1)), "count")
	var spans []hopSpan
	for _, win := range winsB {
		spans = append(spans, win.spans...)
	}
	spanTable(res, spans, dumps)

	replayLayers(res, replayInputsFromLive(w, c, sched, addrs, afterA))
	rollUp(res, cpuNsB)
	// No simulator runs on a live workload.
	notExercised(res, map[string]string{
		"des.events": "count", "simsrv.requests": "count", "des.ns_per_event": "ns",
		"des.alloc_bytes_per_event": "B", "des.ps_op_ns": "ns", "des.ps_op_ns_peak": "ns",
	})
	return res, nil
}

// overhead sets trace.overhead_pct from the median window of each half:
// the drop in rps on the closed loop, the rise in median latency on the
// open loop. trace.overhead_noise_pct is the untraced half's own range
// over its windows, in the same terms; an overhead inside it is not
// resolved.
func overhead(res *results, w workloadCfg, untraced, traced []*window) {
	figure := func(wins []*window) []float64 {
		var xs []float64
		for _, win := range wins {
			cs := summarize([]*window{win}, w)
			if w.Loop == "open" {
				xs = append(xs, cs.latP50)
			} else {
				xs = append(xs, cs.rps)
			}
		}
		return xs
	}
	a, b := figure(untraced), figure(traced)
	base := median(a)
	pct := 100 * (median(b) - base) / base
	if w.Loop == "closed" {
		pct = -pct
	}
	res.setN("trace.overhead_pct", pct, "%", len(a)+len(b))
	res.setN("trace.overhead_noise_pct", 100*(slices.Max(a)-slices.Min(a))/base, "%", len(a))
}

func meanSteal(wins []*window) float64 {
	var xs []float64
	for _, win := range wins {
		xs = append(xs, win.steal)
	}
	return mean(xs)
}

// nodeEvents is one node's recorded lifecycle events by trace id.
type nodeEvents map[trace.TraceID][]trace.Event

func collectEvents(cl *cluster) ([]nodeEvents, error) {
	out := make([]nodeEvents, len(cl.addrs))
	for i := range cl.addrs {
		d, err := cl.traceDump(i)
		if err != nil {
			return nil, err
		}
		if d.Dropped > 0 {
			logf("node %d dropped %d trace events at its capture limit", i, d.Dropped)
		}
		ev := nodeEvents{}
		for _, e := range d.Events {
			if e.Detail == "internal=1" {
				continue // the owner's half of another node's relay
			}
			ev[e.Trace] = append(ev[e.Trace], e)
		}
		out[i] = ev
	}
	return out, nil
}

// spanTable joins the client's hop spans with the servers' events of the
// same trace and node. A hop's self time is its span minus the server
// span it contains: the kernel, loopback and scheduling between the two.
func spanTable(res *results, spans []hopSpan, nodes []nodeEvents) {
	var hop, server, wire, dial, joined float64
	for _, s := range spans {
		h := s.last.Sub(s.write).Seconds()
		hop += h
		if !s.dial.IsZero() {
			dial += s.write.Sub(s.dial).Seconds()
		}
		evs := nodes[s.node][trace.TraceID(s.trace)]
		if len(evs) < 2 {
			continue
		}
		lo, hi := evs[0].At, evs[0].At
		for _, e := range evs {
			lo, hi = min(lo, e.At), max(hi, e.At)
		}
		joined++
		server += hi - lo
		wire += h - (hi - lo)
	}
	n := float64(len(spans))
	if n == 0 {
		return
	}
	res.setN("span.hop_us", hop/n*1e6, "us", len(spans))
	res.set("span.dial_us_per_hop", dial/n*1e6, "us")
	res.set("span.joined_frac", joined/n, "fraction")
	if joined > 0 {
		res.set("span.server_us", server/joined*1e6, "us")
		res.set("span.wire_self_us", wire/joined*1e6, "us")
	}
}

// notExercised reports layers a workload does not run as zero.
func notExercised(res *results, units map[string]string) {
	for k, u := range units {
		res.set(k, 0, u)
	}
}
