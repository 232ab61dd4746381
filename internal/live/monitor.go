package live

import (
	"strconv"
	"time"

	"sweb/internal/monitor"
)

// monitorState holds the cluster's attached monitor and its collect loop.
type monitorState struct {
	mon     *monitor.Monitor
	collect *loop
}

// HTTPSources builds one /sweb/metrics scrape source per node, named by
// node id. Addresses are captured now, so sources stay valid across
// Kill/Restart (a restarted node rebinds its original address).
func (c *Cluster) HTTPSources(timeout time.Duration) []monitor.Source {
	out := make([]monitor.Source, 0, len(c.Servers))
	for i, srv := range c.Servers {
		out = append(out, &monitor.HTTPSource{
			Name:    strconv.Itoa(i),
			Addr:    srv.Addr(),
			Timeout: timeout,
		})
	}
	return out
}

// StartMonitor attaches a cluster monitor that scrapes every node's
// /sweb/metrics each period, with sample timestamps in seconds on the
// shared cluster epoch clock. Idempotent: repeated calls return the
// already-running monitor. Close stops the collect loop.
func (c *Cluster) StartMonitor(cfg monitor.Config, period time.Duration) *monitor.Monitor {
	if c.ms != nil {
		return c.ms.mon
	}
	if period <= 0 {
		period = time.Second
	}
	timeout := period
	if timeout < 500*time.Millisecond {
		timeout = 500 * time.Millisecond
	}
	// Alert-triggered diagnostics: when the cluster has a snapshot dir,
	// any newly firing alert captures a cross-node bundle — after the
	// caller's own OnFire hook, which stays intact.
	if c.snapshotDir != "" {
		user := cfg.OnFire
		cfg.OnFire = func(alerts []monitor.Alert) {
			if user != nil {
				user(alerts)
			}
			c.maybeSnapshot(alerts)
		}
	}
	m := monitor.New(cfg)
	for _, src := range c.HTTPSources(timeout) {
		m.AddSource(src)
	}
	c.ms = &monitorState{mon: m, collect: startLoop(func(stop <-chan struct{}) {
		every(period, stop, func() { m.Collect(time.Since(c.epoch).Seconds()) })
	})}
	return m
}

// Monitor returns the attached monitor, nil before StartMonitor.
func (c *Cluster) Monitor() *monitor.Monitor {
	if c.ms == nil {
		return nil
	}
	return c.ms.mon
}

// StopMonitor halts the collect loop; the monitor and its store remain
// readable. Safe to call repeatedly or with no monitor attached.
func (c *Cluster) StopMonitor() {
	if c.ms != nil {
		c.ms.collect.halt()
	}
}
