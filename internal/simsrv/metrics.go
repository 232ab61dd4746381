package simsrv

import (
	"sweb/internal/cache"
	"sweb/internal/des"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/metrics"
	"sweb/internal/observe"
)

// newObserver wires node x's observer to the simulated node's state, so
// the registry publishes the same sweb_* families a live node serves
// under /sweb/metrics and the monitor renders identical reports from
// either substrate. Everything runs on the single simulation goroutine;
// timestamps are virtual.
func newObserver(c *Cluster, x int) *observe.Observer {
	var fl *flight.Recorder
	if !c.cfg.FlightOff {
		fl = flight.New(flight.Config{Cap: c.cfg.FlightRing, NotableCap: c.cfg.FlightNotable,
			SlowSeconds: c.cfg.SlowThresholdSeconds})
	}
	var ht *heat.Sketch
	if !c.cfg.HeatOff {
		ht = heat.New(heat.Config{K: c.cfg.HeatK})
	}
	o := observe.New(observe.Config{
		Node:       x,
		Sim:        true,
		Flight:     fl,
		Heat:       ht,
		Trace:      c.cfg.Trace,
		NowMicros:  func() int64 { return int64(c.Sim.Now().ToSeconds() * 1e6) },
		Inflight:   func() float64 { return float64(c.inflight[x]) },
		Capacity:   func() float64 { return float64(c.cfg.Specs[x].AcceptQueue) },
		DiskActive: func() float64 { _, disk, _ := c.nodes[x].LoadVector(); return float64(disk) },
		NetActive:  func() float64 { _, _, nic := c.nodes[x].LoadVector(); return float64(nic) },
		BytesOut:   func() float64 { return float64(c.bytesOut[x]) },
		// The DES runs one request at a time, so misses never coalesce and
		// Shared stays 0 — published anyway to keep the family set
		// identical across substrates.
		Cache: func() cache.Stats {
			pc := c.nodes[x].Cache
			h, m := pc.Stats()
			return cache.Stats{Hits: h, Misses: m, Evictions: pc.Evictions(),
				UsedBytes: pc.Used(), CapacityBytes: pc.Capacity()}
		},
		Gossip: c.tables[x],
		Now:    c.nowSec,
	})
	for peer := range c.cfg.Specs {
		if peer != x {
			o.AddPeer(peer)
		}
	}
	return o
}

// Registry exposes node x's metrics registry — the simulator analogue of
// scraping /sweb/metrics, meant to feed a monitor.RegistrySource.
func (c *Cluster) Registry(x int) *metrics.Registry { return c.obs[x].Registry() }

// NodeUp reports whether node x is in the resource pool — the simulated
// scrape-reachability signal.
func (c *Cluster) NodeUp(x int) bool { return c.up[x] }

// Every arms fn on the simulation clock each period until the run
// finalizes — the virtual-time cadence a monitor's Collect loop rides.
func (c *Cluster) Every(period des.Time, fn func()) {
	if period <= 0 {
		return
	}
	var arm func(at des.Time)
	arm = func(at des.Time) {
		c.Sim.At(at, func() {
			if c.stopped {
				return
			}
			fn()
			arm(c.Sim.Now() + period)
		})
	}
	arm(c.Sim.Now() + period)
}
