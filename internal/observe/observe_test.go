package observe

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sweb/internal/cache"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/trace"
)

// newTestObserver builds an observer over constant readings, with every
// sink on, as either substrate would.
func newTestObserver(sim bool, rec *trace.Recorder) *Observer {
	zero := func() float64 { return 0 }
	return New(Config{
		Node:      1,
		Sim:       sim,
		Flight:    flight.New(flight.Config{}),
		Heat:      heat.New(heat.Config{}),
		Trace:     rec,
		NowMicros: func() int64 { return 42 },
		Inflight:  zero, Capacity: zero, DiskActive: zero, NetActive: zero, BytesOut: zero,
		Cache:  func() cache.Stats { return cache.Stats{Hits: 3, CapacityBytes: 10} },
		Gossip: loadd.NewTable(1, 8, 0),
		Now:    zero,
	})
}

func samples(t *testing.T, o *Observer) []metrics.Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	ss, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func value(t *testing.T, ss []metrics.Sample, name string, labels metrics.Labels) float64 {
	t.Helper()
	v, ok := metrics.Value(ss, name, labels)
	if !ok {
		t.Fatalf("%s%v absent", name, labels)
	}
	return v
}

// servedRecord is a cleanly served, scheduled request at node 1 with a
// full cost row for it.
func servedRecord() flight.Record {
	return flight.Record{
		Node: 1, Path: "/a.html", Status: 200, Bytes: 4096, TraceID: "t1",
		Policy: "SWEB", Target: 1, PredictedSeconds: 0.5,
		Candidates: []flight.AuditCandidate{
			{Node: 0, TotalSeconds: -1, Infeasible: true},
			{Node: 1, CPUSeconds: 0.1, DataSeconds: 0.2, NetSeconds: 0.1, TotalSeconds: 0.4},
		},
		ParseSeconds: 0.01, AnalyzeSeconds: 0.02, FulfillSeconds: 0.3,
		TTFBSeconds: 0.05, TotalSeconds: 0.35,
		Owner: 0, Replicas: 2, Relay: true, Miss: true,
	}
}

// TestFinishDerivesAccounting: one record feeds the flight ring, the
// latency histograms with exemplars, the per-phase prediction, and heat.
func TestFinishDerivesAccounting(t *testing.T) {
	o := newTestObserver(false, nil)
	o.Finish(servedRecord())
	ss := samples(t, o)
	if got := value(t, ss, Response+"_count", nil); got != 1 {
		t.Fatalf("response count = %v", got)
	}
	if got := value(t, ss, TTFB+"_sum", nil); got != 0.05 {
		t.Fatalf("ttfb sum = %v", got)
	}
	for phase, want := range map[string][2]float64{
		"cpu": {0.1, 0.03}, "data": {0.3, 0.3}, "total": {0.4, 0.33},
	} {
		lbl := metrics.Labels{"phase": phase}
		p, a := value(t, ss, SchedPredicted, lbl), value(t, ss, SchedActual, lbl)
		if !near(p, want[0]) || !near(a, want[1]) {
			t.Errorf("%s: predicted %v actual %v, want %v", phase, p, a, want)
		}
	}
	if got := value(t, ss, SchedCompared, nil); got != 1 {
		t.Fatalf("compared = %v", got)
	}
	lbl := metrics.Labels{"path": "/a.html"}
	if value(t, ss, HeatRequests, lbl) != 1 || value(t, ss, HeatRelays, lbl) != 1 ||
		value(t, ss, HeatReplicas, lbl) != 2 {
		t.Fatal("heat counters not fed")
	}
	if d := o.Heat().Dump(); d.Total != 1 || d.Entries[0].Misses != 1 || d.Entries[0].Owner != 0 {
		t.Fatalf("heat dump = %+v", d)
	}
	if got := o.Flight().Total(); got != 1 {
		t.Fatalf("flight total = %d", got)
	}
	var buf bytes.Buffer
	_ = o.Registry().WriteText(&buf)
	if !strings.Contains(buf.String(), `# {trace_id="t1"} 0.35 42`) {
		t.Fatalf("response exemplar missing:\n%s", buf.String())
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

// TestFinishFailuresAndIntrospection: a failed request counts its drop
// cause and stays out of the latency and heat families; an introspection
// record reaches only the flight ring; a scalar-only prediction compares
// totals alone.
func TestFinishFailuresAndIntrospection(t *testing.T) {
	o := newTestObserver(false, nil)
	o.Finish(flight.Record{Node: 1, Path: "/missing", Status: 404, Drop: "not_found", PredictedSeconds: 0.2})
	o.Finish(flight.Record{Node: 1, Path: "/sweb/status", Status: 200, Introspect: true})
	scalar := servedRecord()
	scalar.Candidates = nil
	o.Finish(scalar)
	ss := samples(t, o)
	if got := value(t, ss, Drops, metrics.Labels{"cause": "not_found"}); got != 1 {
		t.Fatalf("not_found drops = %v", got)
	}
	if got := value(t, ss, Response+"_count", nil); got != 1 {
		t.Fatalf("response count = %v, want only the served record", got)
	}
	if _, ok := metrics.Value(ss, SchedPredicted, metrics.Labels{"phase": "cpu"}); ok {
		t.Fatal("scalar prediction produced a per-phase cell")
	}
	if got := value(t, ss, SchedPredicted, metrics.Labels{"phase": "total"}); got != 0.5 {
		t.Fatalf("scalar predicted total = %v", got)
	}
	if got := o.Heat().Total(); got != 1 {
		t.Fatalf("heat observations = %d, want 1", got)
	}
	if got := o.Flight().Total(); got != 3 {
		t.Fatalf("flight total = %d", got)
	}
	if got := o.DropCounts(); !reflect.DeepEqual(got, map[string]int64{"not_found": 1}) {
		t.Fatalf("DropCounts = %v", got)
	}
}

// TestEventCountsAndTraces: Event bumps the lifecycle counter and, only
// with tracing on, records the rendered detail; a redirected event counts
// its target; unused kinds and phases never appear in the exposition.
func TestEventCountsAndTraces(t *testing.T) {
	rec := trace.NewRecorder(0)
	o := newTestObserver(false, rec)
	tid := rec.NewRequest()
	o.Event(trace.EvParsed, tid, 1, "path=", "/a")
	o.EventN(trace.EvRedirected, tid, 2, "to=", 3)
	o.Phase(PhaseParse, 0.001)
	ss := samples(t, o)
	if value(t, ss, Events, metrics.Labels{"event": "parsed"}) != 1 ||
		value(t, ss, RedirectTargets, metrics.Labels{"target": "3"}) != 1 {
		t.Fatal("event counters not bumped")
	}
	if _, ok := metrics.Value(ss, Events, metrics.Labels{"event": "cgi"}); ok {
		t.Fatal("an unused event kind appeared in the exposition")
	}
	if _, ok := metrics.Value(ss, Phases+"_count", metrics.Labels{"phase": PhaseAnalyze}); ok {
		t.Fatal("an unused phase appeared in the exposition")
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Detail != "path=/a" || evs[1].Detail != "to=3" || evs[1].Node != 1 {
		t.Fatalf("trace events = %+v", evs)
	}

	quiet := newTestObserver(false, nil)
	quiet.Event(trace.EvParsed, -1, 1, "path=", "/a")
	if value(t, samples(t, quiet), Events, metrics.Labels{"event": "parsed"}) != 1 {
		t.Fatal("untraced event not counted")
	}
}

// TestFamilySetIndependentOfSubstrate is the parity check the shared
// observer replaces: fed the same requests, the live and simulated
// configurations publish the same (family, label keys) set, and differ
// only in the wording of the families whose meaning differs.
func TestFamilySetIndependentOfSubstrate(t *testing.T) {
	var sets [2][]string
	var helps [2]map[string]string
	for i, sim := range []bool{false, true} {
		o := newTestObserver(sim, nil)
		o.AddPeer(0)
		o.Event(trace.EvConnected, -1, 0, "", "")
		o.Phase(PhaseFetchNFS, 0.1)
		o.ReplicaFetch("/a.html", 0)
		o.Rebalance("add")
		o.Finish(servedRecord())
		o.Finish(flight.Record{Node: 1, Status: 503, Drop: "refused"})
		seen := make(map[string]bool)
		for _, s := range samples(t, o) {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			seen[s.Name+"{"+strings.Join(keys, ",")+"}"] = true
		}
		for k := range seen {
			sets[i] = append(sets[i], k)
		}
		sort.Strings(sets[i])
		var buf bytes.Buffer
		_ = o.Registry().WriteText(&buf)
		helps[i] = make(map[string]string)
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				name, text, _ := strings.Cut(rest, " ")
				helps[i][name] = text
			}
		}
	}
	if !reflect.DeepEqual(sets[0], sets[1]) {
		t.Fatalf("family sets diverge:\nlive: %v\nsim:  %v", sets[0], sets[1])
	}
	for name, text := range helps[0] {
		if _, reworded := simHelp[name]; !reworded && helps[1][name] != text {
			t.Errorf("%s help differs without a sim wording: %q vs %q", name, text, helps[1][name])
		}
	}
	if helps[1][TTFB] != simHelp[TTFB] {
		t.Fatalf("sim TTFB help = %q", helps[1][TTFB])
	}
}
