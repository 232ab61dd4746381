// Package observe is the one observer both substrates report requests to.
// It declares every sweb_* metric family, builds a node's registry, and
// turns each request's single flight.Record into the cells the paper's
// per-phase accounting (§4.3, Table 5) reads. The live httpd and the DES
// call the same three entry points — Event at instant lifecycle points,
// Phase when a phase ends, Finish once per record — so the exposition,
// the flight rings and the heat sketches agree across substrates by
// construction rather than by parity test.
package observe

import (
	"math"
	"strconv"
	"sync/atomic"

	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/trace"
)

// Request families: the lifecycle events mirror the trace.Kind
// vocabulary, the phase histograms are the live analogue of Table 5's
// per-phase costs, and the sched_* families compare the broker's
// predicted t_s terms against what the node then measured.
const (
	Events          = "sweb_events_total"
	Phases          = "sweb_phase_seconds"
	Response        = "sweb_response_seconds"
	TTFB            = "sweb_ttfb_seconds"
	Drops           = "sweb_drops_total"
	RedirectTargets = "sweb_redirect_targets_total"
	SchedPredicted  = "sweb_sched_predicted_seconds_total"
	SchedActual     = "sweb_sched_actual_seconds_total"
	SchedCompared   = "sweb_sched_compared_total"
	SchedAbsErr     = "sweb_sched_abs_error_seconds"
)

// Node state both substrates publish, read at exposition time.
const (
	Inflight   = "sweb_inflight"
	Capacity   = "sweb_capacity"
	DiskActive = "sweb_disk_active"
	NetActive  = "sweb_net_active"
	BytesOut   = "sweb_bytes_out_total"
)

// Cache, flight, heat, replication and gossip accounting. Age is
// per-peer broadcast staleness; interval is the gap between receptions;
// advertised is the load vector a peer last claimed; drift is |now - last
// advertised| for the node's own numbers, the error peers act on between
// broadcasts.
const (
	CacheHits        = "sweb_cache_hits_total"
	CacheMisses      = "sweb_cache_misses_total"
	CacheEvictions   = "sweb_cache_evictions_total"
	CacheShared      = "sweb_cache_singleflight_shared_total"
	CacheBytes       = "sweb_cache_bytes"
	CacheCapacity    = "sweb_cache_capacity_bytes"
	FlightRecords    = "sweb_flight_records_total"
	FlightNotable    = "sweb_flight_notable_total"
	HeatObservations = "sweb_heat_observations_total"
	HeatTracked      = "sweb_heat_tracked_paths"
	HeatRequests     = "sweb_heat_requests_total"
	HeatRelays       = "sweb_heat_relays_total"
	HeatReplicas     = "sweb_heat_replicas"
	ReplicaFetch     = "sweb_replica_fetch_total"
	Rebalance        = "sweb_rebalance_actions_total"
	GossipAge        = "sweb_loadd_broadcast_age_seconds"
	GossipAdvertised = "sweb_loadd_advertised_load"
	GossipInterval   = "sweb_loadd_broadcast_interval_seconds"
	GossipDrift      = "sweb_loadd_self_drift"
)

// Families only a live node publishes: its connection plane, upstream
// pool, Go runtime health and trace capture.
const (
	RequestsActive   = "sweb_requests_active"
	ConnsActive      = "sweb_conns_active"
	ConnsIdle        = "sweb_conns_idle"
	IdleReaped       = "sweb_conns_idle_reaped_total"
	KeepAlivePerConn = "sweb_keepalive_requests_per_conn"
	UpstreamDials    = "sweb_upstream_dials_total"
	UpstreamReused   = "sweb_upstream_reused_total"
	BuildInfo        = "sweb_build_info"
	Goroutines       = "sweb_goroutines"
	HeapAlloc        = "sweb_heap_alloc_bytes"
	GCPause          = "sweb_gc_pause_seconds_total"
	TraceDropped     = "sweb_trace_dropped_total"
)

// The cluster monitor's own families.
const (
	MonitorUp    = "sweb_monitor_up"
	MonitorAlert = "sweb_monitor_alert"
)

// Phase cells of sweb_phase_seconds, in lifecycle order. redirect_hop is
// the measured t_redirection: a 302 leaving one node to the redirected
// connection arriving at the target.
const (
	PhaseParse       = "parse"
	PhaseAnalyze     = "analyze"
	PhaseRedirect    = "redirect"
	PhaseRedirectHop = "redirect_hop"
	PhaseFetchLocal  = "fetch_local"
	PhaseFetchNFS    = "fetch_nfs"
	PhaseCGI         = "cgi"
)

// PhaseNames lists every phase cell in lifecycle order.
var PhaseNames = []string{PhaseParse, PhaseAnalyze, PhaseRedirect, PhaseRedirectHop,
	PhaseFetchLocal, PhaseFetchNFS, PhaseCGI}

// Drop causes of sweb_drops_total that either substrate emits.
var dropCauses = []string{"shed", "bad_request", "not_found", "write_failed", "local_io",
	"owner_unknown", "owner_unreachable", "refused", "unavailable", "timeout"}

var eventKinds = []string{
	string(trace.EvConnected), string(trace.EvRefused), string(trace.EvParsed),
	string(trace.EvAnalyzed), string(trace.EvRedirected), string(trace.EvForwarded),
	string(trace.EvFetchLocal), string(trace.EvFetchNFS), string(trace.EvCGI),
	string(trace.EvSent),
}

// help is each shared family's description; simHelp rewords the few
// whose meaning differs on the simulated substrate.
var help = map[string]string{
	Events:           "request lifecycle events by trace kind",
	Phases:           "time spent per lifecycle phase",
	Response:         "end-to-end service time per successfully served request",
	TTFB:             "request arrival to first response byte on the wire",
	Drops:            "requests not served in full, by cause",
	RedirectTargets:  "302s issued, by target node",
	SchedPredicted:   "sum of broker-predicted seconds by t_s phase",
	SchedActual:      "sum of measured seconds by t_s phase",
	SchedCompared:    "requests with both a finite prediction and a measured total",
	SchedAbsErr:      "absolute error |predicted - actual| of the broker's t_s",
	Inflight:         "client connections open now (idle keep-alive included)",
	Capacity:         "concurrent-connection ceiling (MAXLOAD analogue)",
	DiskActive:       "in-progress local disk reads",
	NetActive:        "in-progress transfers and fetches",
	BytesOut:         "response body bytes written",
	CacheHits:        "hot-file cache lookups served from memory",
	CacheMisses:      "hot-file cache lookups that missed (absent or stale)",
	CacheEvictions:   "entries displaced by the LRU policy",
	CacheShared:      "fills shared by coalesced concurrent misses",
	CacheBytes:       "bytes resident in the hot-file cache",
	CacheCapacity:    "hot-file cache capacity",
	FlightRecords:    "requests recorded by the flight recorder",
	FlightNotable:    "flight records retained as notable (errors and slow requests)",
	HeatObservations: "served requests folded into the document-heat sketch",
	HeatTracked:      "paths holding a document-heat sketch slot now",
	HeatRequests:     "served requests per document path",
	HeatRelays:       "requests served by fetching the document from a replica",
	HeatReplicas:     "replica-set size of the document at last serve",
	ReplicaFetch:     "internal document fetches by source replica node",
	Rebalance:        "replica-set mutations applied at this node, by action",
	GossipAge:        "seconds since the peer's last load broadcast (-1: none yet)",
	GossipAdvertised: "load the peer last advertised, by facet",
	GossipInterval:   "gap between consecutive broadcasts received, by peer",
	GossipDrift:      "|load now - load last advertised| at broadcast time, by facet",
}

var simHelp = map[string]string{
	TTFB:          "request arrival to first response chunk, virtual time",
	Inflight:      "connections being handled now",
	Capacity:      "accept capacity (process table + listen backlog)",
	CacheHits:     "page-cache lookups served from memory",
	CacheMisses:   "page-cache lookups that missed",
	CacheBytes:    "bytes resident in the page cache",
	CacheCapacity: "page-cache capacity",
}

// gossipIntervalBuckets cover a healthy 2-3 s gossip period up through the
// 8 s default timeout and well past it, so a dying peer's growing gaps are
// visible in the histogram, not just clipped into +Inf.
var gossipIntervalBuckets = []float64{0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// gossipDriftBuckets are in load units (runnable jobs / active transfers),
// not seconds.
var gossipDriftBuckets = []float64{0.5, 1, 2, 4, 8, 16, 32, 64}

// Config wires an Observer to its node. The func-valued fields are the
// substrate's readings, evaluated at exposition time.
type Config struct {
	Node int
	// Sim selects the simulator's wording for the families whose meaning
	// differs there (virtual-time TTFB, page cache, accept queue).
	Sim bool
	// Sinks; each may be nil (disabled).
	Flight *flight.Recorder
	Heat   *heat.Sketch
	Trace  *trace.Recorder
	// ExemplarOff skips stamping histogram exemplars.
	ExemplarOff bool
	// NowMicros stamps exemplars (unix micros live, virtual micros sim).
	NowMicros func() int64

	Inflight, Capacity, DiskActive, NetActive, BytesOut func() float64
	// Cache reads the document cache; nil publishes no cache families.
	Cache func() cache.Stats
	// Gossip is the node's loadd table and Now its clock in seconds, read
	// by the per-peer gauges AddPeer registers.
	Gossip *loadd.Table
	Now    func() float64
}

// Observer is one node's request accounting. All methods are safe for
// concurrent use.
type Observer struct {
	cfg      Config
	reg      *metrics.Registry
	events   cells[metrics.Counter]
	phases   cells[metrics.Histogram]
	drops    cells[metrics.Counter]
	response *metrics.Histogram
	ttfb     *metrics.Histogram
	compared *metrics.Counter
	absErr   *metrics.Histogram
}

// New builds the node's registry with every family both substrates share.
func New(cfg Config) *Observer {
	reg := metrics.NewRegistry()
	o := &Observer{cfg: cfg, reg: reg}
	o.events = newCells(eventKinds, func(v string) *metrics.Counter {
		return reg.Counter(Events, o.help(Events), metrics.Labels{"event": v})
	})
	o.phases = newCells(PhaseNames, func(v string) *metrics.Histogram {
		return reg.Histogram(Phases, o.help(Phases), metrics.Labels{"phase": v}, nil)
	})
	o.drops = newCells(dropCauses, func(v string) *metrics.Counter {
		return reg.Counter(Drops, o.help(Drops), metrics.Labels{"cause": v})
	})
	o.response = reg.Histogram(Response, o.help(Response), nil, nil)
	o.ttfb = reg.Histogram(TTFB, o.help(TTFB), nil, nil)
	o.compared = reg.Counter(SchedCompared, o.help(SchedCompared), nil)
	o.absErr = reg.Histogram(SchedAbsErr, o.help(SchedAbsErr), nil, nil)

	for name, fn := range map[string]func() float64{
		Inflight: cfg.Inflight, Capacity: cfg.Capacity,
		DiskActive: cfg.DiskActive, NetActive: cfg.NetActive,
	} {
		reg.GaugeFunc(name, o.help(name), nil, fn)
	}
	reg.CounterFunc(BytesOut, o.help(BytesOut), nil, cfg.BytesOut)
	fl := cfg.Flight
	reg.CounterFunc(FlightRecords, o.help(FlightRecords), nil,
		func() float64 { return float64(fl.Total()) })
	reg.CounterFunc(FlightNotable, o.help(FlightNotable), nil,
		func() float64 { return float64(fl.NotableTotal()) })
	if h := cfg.Heat; h != nil {
		reg.CounterFunc(HeatObservations, o.help(HeatObservations), nil,
			func() float64 { return float64(h.Total()) })
		reg.GaugeFunc(HeatTracked, o.help(HeatTracked), nil,
			func() float64 { return float64(h.Tracked()) })
	}
	if read := cfg.Cache; read != nil {
		for name, field := range map[string]func(cache.Stats) int64{
			CacheHits:      func(s cache.Stats) int64 { return s.Hits },
			CacheMisses:    func(s cache.Stats) int64 { return s.Misses },
			CacheEvictions: func(s cache.Stats) int64 { return s.Evictions },
			CacheShared:    func(s cache.Stats) int64 { return s.SingleflightShared },
		} {
			field := field
			reg.CounterFunc(name, o.help(name), nil, func() float64 { return float64(field(read())) })
		}
		reg.GaugeFunc(CacheBytes, o.help(CacheBytes), nil,
			func() float64 { return float64(read().UsedBytes) })
		reg.GaugeFunc(CacheCapacity, o.help(CacheCapacity), nil,
			func() float64 { return float64(read().CapacityBytes) })
	}
	return o
}

func (o *Observer) help(name string) string {
	if h, ok := simHelp[name]; ok && o.cfg.Sim {
		return h
	}
	return help[name]
}

// Registry is the node's exposition: /sweb/metrics live, a monitor
// RegistrySource in the simulator.
func (o *Observer) Registry() *metrics.Registry { return o.reg }

// Flight is the node's black box (nil when disabled).
func (o *Observer) Flight() *flight.Recorder { return o.cfg.Flight }

// Heat is the node's document-heat sketch (nil when disabled).
func (o *Observer) Heat() *heat.Sketch { return o.cfg.Heat }

// AddPeer registers the gossip gauges for one peer: staleness of its last
// broadcast and the load vector it advertised, read from the loadd table
// at exposition time. A peer with no sample yet reads -1 age and zero
// loads. Re-adding a peer is a no-op.
func (o *Observer) AddPeer(peer int) {
	t, now := o.cfg.Gossip, o.cfg.Now
	id := strconv.Itoa(peer)
	o.reg.GaugeFunc(GossipAge, o.help(GossipAge), metrics.Labels{"peer": id},
		func() float64 { return t.Age(peer, now()) })
	for _, facet := range []string{"cpu", "disk", "net"} {
		facet := facet
		o.reg.GaugeFunc(GossipAdvertised, o.help(GossipAdvertised),
			metrics.Labels{"peer": id, "facet": facet}, func() float64 {
				smp, ok := t.Advertised(peer)
				switch {
				case !ok:
					return 0
				case facet == "cpu":
					return smp.CPULoad
				case facet == "disk":
					return smp.DiskLoad
				default:
					return smp.NetLoad
				}
			})
	}
}

// GossipInterval observes the gap between two broadcasts received from peer.
func (o *Observer) GossipInterval(peer int, seconds float64) {
	o.reg.Histogram(GossipInterval, o.help(GossipInterval),
		metrics.Labels{"peer": strconv.Itoa(peer)}, gossipIntervalBuckets).Observe(seconds)
}

// GossipDrift observes how far one facet of the node's own load moved
// since it was last advertised.
func (o *Observer) GossipDrift(facet string, delta float64) {
	o.reg.Histogram(GossipDrift, o.help(GossipDrift),
		metrics.Labels{"facet": facet}, gossipDriftBuckets).Observe(math.Abs(delta))
}

// ReplicaFetch counts one internal fetch of path served by source.
func (o *Observer) ReplicaFetch(path string, source int) {
	o.reg.Counter(ReplicaFetch, o.help(ReplicaFetch),
		metrics.Labels{"path": path, "source": strconv.Itoa(source)}).Inc()
}

// Rebalance counts one replica-set mutation applied at this node.
func (o *Observer) Rebalance(action string) {
	o.reg.Counter(Rebalance, o.help(Rebalance), metrics.Labels{"action": action}).Inc()
}

// Event records one instant lifecycle point: it bumps
// sweb_events_total{event=kind} and, when tracing is on, records the trace
// event with detail key+val (rendered only then).
func (o *Observer) Event(kind trace.Kind, tid int64, at float64, key, val string) {
	o.events.get(string(kind)).Inc()
	if rec := o.cfg.Trace; rec.Enabled() {
		rec.Record(tid, at, kind, o.cfg.Node, key+val)
	}
}

// EventN is Event with a numeric detail, key+n. A redirected event's
// number is its target node, which sweb_redirect_targets_total counts.
func (o *Observer) EventN(kind trace.Kind, tid int64, at float64, key string, n int) {
	o.events.get(string(kind)).Inc()
	if kind == trace.EvRedirected {
		o.reg.Counter(RedirectTargets, o.help(RedirectTargets),
			metrics.Labels{"target": strconv.Itoa(n)}).Inc()
	}
	if rec := o.cfg.Trace; rec.Enabled() {
		rec.Record(tid, at, kind, o.cfg.Node, key+strconv.Itoa(n))
	}
}

// Phase observes one lifecycle phase ending at this node. Phases are
// observed where they end rather than derived from the record: a
// simulated request's one record lands at the serving node, while its
// parse and redirect phases may have run on the node that redirected it.
func (o *Observer) Phase(phase string, seconds float64) {
	o.phases.get(phase).Observe(seconds)
}

// Drop counts a refusal that never became a request record (a shed
// connection). Requests carry their cause in Record.Drop instead.
func (o *Observer) Drop(cause string) { o.drops.get(cause).Inc() }

// DropCounts reads sweb_drops_total back by cause (the Stats view).
func (o *Observer) DropCounts() map[string]int64 {
	var out map[string]int64
	for i, v := range o.drops.values {
		if c := o.drops.slots[i].Load(); c != nil {
			if out == nil {
				out = make(map[string]int64)
			}
			out[v] = int64(c.Value())
		}
	}
	return out
}

// Finish is the request's single point of finalization. From the one
// record it derives the drop counter, and — for a cleanly served request
// (200 or 304) — the response and TTFB histograms with the trace id as
// exemplar, the predicted-vs-actual t_s comparison and the document-heat
// accounting; then it appends the record to the flight rings. Only
// successes feed the latency families, and every failure carries a drop
// cause, so the SLO engine reads each request exactly once.
func (o *Observer) Finish(rec flight.Record) {
	if rec.Drop != "" {
		o.drops.get(rec.Drop).Inc()
	}
	if !rec.Introspect && (rec.Status == 200 || rec.Status == 304) {
		ex := rec.TraceID
		if o.cfg.ExemplarOff {
			ex = ""
		}
		ts := o.cfg.NowMicros()
		o.response.ObserveExemplar(rec.TotalSeconds, ex, ts)
		if rec.TTFBSeconds >= 0 {
			o.ttfb.ObserveExemplar(rec.TTFBSeconds, ex, ts)
		}
		o.compare(&rec)
		o.heat(&rec)
	}
	o.cfg.Flight.Add(rec)
}

// compare feeds the predicted-vs-actual accumulators. The actual t_s is
// the server-side lifecycle, parse + analyze + fulfillment. With a full
// cost row for the serving node the comparison is per phase (t_CPU vs
// parse+analyze, t_data+t_net vs fulfillment); policies that predict only
// a scalar (rr, cpu, the simulated broker) compare totals — the report
// then shows exactly how blind they are, which is the paper's point.
func (o *Observer) compare(rec *flight.Record) {
	actual := rec.ParseSeconds + rec.AnalyzeSeconds + rec.FulfillSeconds
	predicted := rec.PredictedSeconds
	if n := rec.Node; n >= 0 && n < len(rec.Candidates) &&
		!rec.Candidates[n].Infeasible && rec.Candidates[n].TotalSeconds >= 0 {
		cb := rec.Candidates[n]
		o.prediction("cpu", cb.CPUSeconds, rec.ParseSeconds+rec.AnalyzeSeconds)
		o.prediction("data", cb.DataSeconds+cb.NetSeconds, rec.FulfillSeconds)
		predicted = cb.TotalSeconds
	} else if predicted < 0 {
		return
	}
	o.prediction("total", predicted, actual)
	o.compared.Inc()
	o.absErr.Observe(math.Abs(predicted - actual))
}

func (o *Observer) prediction(phase string, predicted, actual float64) {
	lbl := metrics.Labels{"phase": phase}
	o.reg.Counter(SchedPredicted, o.help(SchedPredicted), lbl).Add(predicted)
	o.reg.Counter(SchedActual, o.help(SchedActual), lbl).Add(actual)
}

// heat folds a served request into the sketch and bumps the per-path
// counters the monitor's hot_doc rule windows, plus the replica-set-size
// gauge the rule divides by — so replicating a hot document clears the
// alert without the load having to flatten.
func (o *Observer) heat(rec *flight.Record) {
	h := o.cfg.Heat
	if h == nil {
		return
	}
	h.Observe(heat.Observation{Path: rec.Path, Owner: rec.Owner, Bytes: rec.Bytes,
		Relay: rec.Relay, Miss: rec.Miss, Seconds: rec.TotalSeconds})
	lbl := metrics.Labels{"path": rec.Path}
	o.reg.Counter(HeatRequests, o.help(HeatRequests), lbl).Inc()
	if rec.Relay {
		o.reg.Counter(HeatRelays, o.help(HeatRelays), lbl).Inc()
	}
	o.reg.Gauge(HeatReplicas, o.help(HeatReplicas), lbl).Set(float64(rec.Replicas))
}

// Finite maps the broker's +Inf "no estimate" sentinel (and NaN) to -1,
// the record's not-measured value.
func Finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// CostTable converts a decision's per-node breakdowns into the record's
// JSON-safe cost table.
func CostTable(cands []core.CostBreakdown) []flight.AuditCandidate {
	if len(cands) == 0 {
		return nil
	}
	out := make([]flight.AuditCandidate, len(cands))
	for i, cb := range cands {
		out[i] = flight.AuditCandidate{
			Node:            cb.Node,
			SourceNode:      cb.Source,
			RedirectSeconds: Finite(cb.Redirect),
			DataSeconds:     Finite(cb.Data),
			CPUSeconds:      Finite(cb.CPU),
			NetSeconds:      Finite(cb.Net),
			TotalSeconds:    Finite(cb.Total),
			Infeasible:      cb.Infeasible,
		}
	}
	return out
}

// cells is a fixed label set whose instances resolve on first use — a
// label value that never occurs never shows up in the exposition — and
// after that cost one atomic load. Values outside the set fall back to
// the registry lookup.
type cells[T any] struct {
	values []string
	slots  []atomic.Pointer[T]
	make   func(value string) *T
}

func newCells[T any](values []string, mk func(string) *T) cells[T] {
	return cells[T]{values: values, slots: make([]atomic.Pointer[T], len(values)), make: mk}
}

func (c *cells[T]) get(v string) *T {
	for i, s := range c.values {
		if s == v {
			if p := c.slots[i].Load(); p != nil {
				return p
			}
			p := c.make(v)
			c.slots[i].Store(p)
			return p
		}
	}
	return c.make(v)
}
