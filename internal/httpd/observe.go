package httpd

import (
	"runtime"
	"time"

	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/observe"
)

// keepAliveBuckets cover one-shot connections through a fully amortized
// KeepAliveMax=100 and beyond.
var keepAliveBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250}

// newObserver builds the node's observer over the live counters and
// registers the families only a live node has: the connection plane, the
// upstream pool, Go runtime health and trace capture.
func newObserver(s *Server) *observe.Observer {
	cfg := observe.Config{
		Node:        s.cfg.ID,
		Trace:       s.cfg.Trace,
		ExemplarOff: s.cfg.ExemplarOff,
		NowMicros:   func() int64 { return time.Now().UnixMicro() },
		Inflight:    func() float64 { return float64(s.inflight.Load()) },
		Capacity:    func() float64 { return float64(s.cfg.MaxConcurrent) },
		DiskActive:  func() float64 { return float64(s.diskActive.Load()) },
		NetActive:   func() float64 { return float64(s.netActive.Load()) },
		BytesOut:    func() float64 { return float64(s.bytesOut.Load()) },
		Gossip:      s.table,
		Now:         s.nowSec,
	}
	if !s.cfg.FlightOff {
		fcfg := flight.Config{Cap: s.cfg.FlightRing, NotableCap: s.cfg.FlightNotable}
		switch {
		case s.cfg.SlowThreshold < 0:
			fcfg.SlowSeconds = -1
		case s.cfg.SlowThreshold > 0:
			fcfg.SlowSeconds = s.cfg.SlowThreshold.Seconds()
		}
		cfg.Flight = flight.New(fcfg)
	}
	if !s.cfg.HeatOff {
		cfg.Heat = heat.New(heat.Config{K: s.cfg.HeatK})
	}
	if s.cache != nil {
		cfg.Cache = s.cache.Stats
	}
	o := observe.New(cfg)
	reg := o.Registry()
	s.kaServed = reg.Histogram(observe.KeepAlivePerConn,
		"requests served per client connection, observed at connection end", nil, keepAliveBuckets)
	reg.GaugeFunc(observe.ConnsActive, "client connections with a request mid-lifecycle now", nil,
		func() float64 { a, _ := s.connCounts(); return float64(a) })
	reg.GaugeFunc(observe.ConnsIdle, "client connections parked between requests now", nil,
		func() float64 { _, i := s.connCounts(); return float64(i) })
	reg.CounterFunc(observe.IdleReaped, "keep-alive connections closed by the idle timeout", nil,
		func() float64 { return float64(s.idleReaped.Load()) })
	reg.GaugeFunc(observe.RequestsActive, "requests mid-lifecycle now (the load signal)", nil,
		func() float64 { return float64(s.reqActive.Load()) })
	reg.CounterFunc(observe.UpstreamDials, "internal-fetch connections dialed", nil,
		func() float64 { return float64(s.upstreamDials.Load()) })
	reg.CounterFunc(observe.UpstreamReused, "internal fetches served over a pooled connection", nil,
		func() float64 { return float64(s.upstreamReused.Load()) })
	// Server-process health next to the modelled load: a node can look
	// lightly loaded in SWEB terms while the Go runtime is drowning.
	reg.Gauge(observe.BuildInfo, "build metadata; value is always 1",
		metrics.Labels{"go_version": runtime.Version()}).Set(1)
	reg.GaugeFunc(observe.Goroutines, "live goroutines in the server process", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc(observe.HeapAlloc, "bytes of allocated heap objects", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.CounterFunc(observe.GCPause, "cumulative GC stop-the-world pause time", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	if rec := s.cfg.Trace; rec.Enabled() {
		reg.CounterFunc(observe.TraceDropped, "trace events discarded at the capture limit", nil,
			func() float64 { return float64(rec.Dropped()) })
	}
	return o
}

// finish completes a request's record with its connection and timing
// fields, hands it to the observer and writes its access-log line — the
// one place a live request is finalized — then wakes Settle. Internal
// fetches never get here, so the log holds client requests only. req is
// nil for a request that did not parse.
func (s *Server) finish(rc *reqConn, req *httpmsg.Request, fl flight.Record, t0 time.Time) {
	fl.Node = s.cfg.ID
	fl.ConnID = rc.id
	fl.AtSeconds = s.sinceEpoch(t0)
	fl.TotalSeconds = time.Since(t0).Seconds()
	fl.Bytes = rc.meter.written
	fl.TTFBSeconds = -1
	if fb := rc.meter.firstWrite; !fb.IsZero() {
		fl.TTFBSeconds = fb.Sub(t0).Seconds()
	}
	fl.Drop = rc.drop
	s.obs.Finish(fl)
	if fl.Status != 0 {
		body := int64(-1)
		if fl.Status == httpmsg.StatusOK {
			body = rc.body
		}
		s.logAccess(rc.c, req, fl.Status, body)
	}
	s.settleMu.Lock()
	s.finished++
	s.settleMu.Unlock()
	s.settle.Broadcast()
}

// busyAdd moves the count of connections with a request in progress —
// read, handled, or answered but not yet back in the idle wait or torn
// down — and wakes Settle.
func (s *Server) busyAdd(d int64) {
	s.settleMu.Lock()
	s.busy += d
	s.settleMu.Unlock()
	s.settle.Broadcast()
}

// connDone accounts one client connection's teardown; busy reports that
// it ended mid-request rather than from the idle wait.
func (s *Server) connDone(busy bool) {
	s.settleMu.Lock()
	s.inflight.Add(-1)
	if busy {
		s.busy--
	}
	s.settleMu.Unlock()
	s.settle.Broadcast()
}

// Settle blocks until the node has finalized at least n requests — their
// records, metrics, access-log lines and trace events are all in place —
// and no connection is mid-request: each is parked in the idle wait or
// torn down. A client has its response before the server finishes its
// bookkeeping, so tests wait here instead of racing it.
func (s *Server) Settle(n int64) {
	s.settleMu.Lock()
	defer s.settleMu.Unlock()
	for s.finished < n || s.busy > 0 {
		s.settle.Wait()
	}
}
