package live

import (
	"sync"
	"time"

	"sweb/internal/rebalance"
)

// rebalancerState holds the cluster's replica rebalancer loop.
type rebalancerState struct {
	ctrl *rebalance.Controller
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// StartRebalancer attaches the heat-driven replica rebalancer: every
// period it folds the nodes' heat sketches into the cluster view, asks
// the controller for actions, and applies them — an "add" makes the
// target node materialize its own copy (bytes first, store second), a
// "drop" retires one. Dead nodes neither receive replicas nor apply
// actions. Idempotent; StopRebalancer (or Close) halts the loop.
func (c *Cluster) StartRebalancer(cfg rebalance.Config, period time.Duration) {
	if c.rb != nil {
		return
	}
	if period <= 0 {
		period = time.Second
	}
	rb := &rebalancerState{ctrl: rebalance.New(cfg), stop: make(chan struct{})}
	c.rb = rb
	rb.wg.Add(1)
	go func() {
		defer rb.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-rb.stop:
				return
			case <-t.C:
				c.rebalanceTick(rb)
			}
		}
	}()
}

// rebalanceTick runs one controller round and applies its actions.
func (c *Cluster) rebalanceTick(rb *rebalancerState) {
	up := func(n int) bool {
		return n >= 0 && n < len(c.Servers) && c.Servers[n] != nil && !c.Servers[n].Closed()
	}
	for _, act := range rb.ctrl.Tick(c.MergedHeat(), c.store, up) {
		if !up(act.Node) {
			continue
		}
		// A failed action leaves the store's placement unchanged, and the
		// controller reads placements from the store every tick.
		switch act.Kind {
		case "add":
			_ = c.Servers[act.Node].MaterializeReplica(act.Path)
		case "drop":
			_ = c.Servers[act.Node].DropReplicaLocal(act.Path)
		}
	}
}

// StopRebalancer halts the rebalance loop. Safe to call repeatedly or
// with no rebalancer attached.
func (c *Cluster) StopRebalancer() {
	if c.rb == nil {
		return
	}
	c.rb.once.Do(func() { close(c.rb.stop) })
	c.rb.wg.Wait()
}
