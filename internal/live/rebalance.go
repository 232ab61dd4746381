package live

import (
	"fmt"
	"sync"
	"time"

	"sweb/internal/heat"
	"sweb/internal/httpd"
	"sweb/internal/rebalance"
	"sweb/internal/storage"
)

// Rebalancer is the heat-driven replica rebalancer's leader loop, spoken
// over the nodes' HTTP surface: Tick scrapes every peer's /sweb/heat and
// asks the controller for actions, Apply broadcasts each action to every
// reachable node via /sweb/replicate. swebd -rebalance runs it on the
// lowest-id node; Cluster.StartRebalancer runs the same loop in process.
type Rebalancer struct {
	ctrl  *rebalance.Controller
	store *storage.Store
	peers []httpd.Peer
}

// NewRebalancer builds the loop over the leader's store and the cluster
// membership.
func NewRebalancer(cfg rebalance.Config, store *storage.Store, peers []httpd.Peer) *Rebalancer {
	return &Rebalancer{ctrl: rebalance.New(cfg), store: store, peers: peers}
}

// Tick scrapes every peer's heat sketch, merges them into the cluster
// view, and returns the controller's actions along with the nodes that
// answered. Unreachable nodes neither receive replicas nor apply actions.
func (r *Rebalancer) Tick() ([]rebalance.Action, map[int]bool) {
	var dumps []heat.Dump
	up := make(map[int]bool)
	for _, p := range r.peers {
		d, err := Heat(p.HTTPAddr)
		if err != nil {
			continue
		}
		up[p.ID] = true
		dumps = append(dumps, *d)
	}
	return r.ctrl.Tick(heat.Merge(dumps), r.store, func(n int) bool { return up[n] }), up
}

// Apply broadcasts each action to every reachable node — the addressed
// node moves the bytes, the rest update their routing maps. For an add
// the addressed node goes first (materialize-then-announce); for a drop
// it goes last, so peers stop routing at the copy before it disappears.
// An add whose copy never landed is not announced. It returns every
// failed call.
func (r *Rebalancer) Apply(acts []rebalance.Action, up map[int]bool) []error {
	var errs []error
	for _, act := range acts {
		var addressed, ordered []httpd.Peer
		for _, p := range r.peers {
			switch {
			case !up[p.ID]:
			case p.ID == act.Node:
				addressed = append(addressed, p)
			default:
				ordered = append(ordered, p)
			}
		}
		if act.Kind == "add" {
			ordered = append(addressed, ordered...)
		} else {
			ordered = append(ordered, addressed...)
		}
		for _, p := range ordered {
			if _, err := ReplicateCmd(p.HTTPAddr, act.Path, act.Node, act.Kind); err != nil {
				errs = append(errs, fmt.Errorf("rebalance %s %s@%d via node %d: %w",
					act.Kind, act.Path, act.Node, p.ID, err))
				if p.ID == act.Node && act.Kind == "add" {
					break
				}
			}
		}
	}
	return errs
}

// Run ticks and applies every period until stop closes, reporting each
// failed call to onErr.
func (r *Rebalancer) Run(period time.Duration, stop <-chan struct{}, onErr func(error)) {
	every(period, stop, func() {
		for _, err := range r.Apply(r.Tick()) {
			onErr(err)
		}
	})
}

// StartRebalancer attaches the heat-driven replica rebalancer: every
// period the Rebalancer loop scrapes the nodes' heat, asks the controller
// for actions, and broadcasts them — an "add" makes the target node
// materialize its own copy (bytes first, store second), a "drop" retires
// one. Failed calls leave the placement unchanged, and the controller
// re-reads placements every tick. Idempotent; StopRebalancer (or Close)
// halts the loop.
func (c *Cluster) StartRebalancer(cfg rebalance.Config, period time.Duration) {
	if c.rb != nil {
		return
	}
	if period <= 0 {
		period = time.Second
	}
	peers := make([]httpd.Peer, len(c.Servers))
	for i, srv := range c.Servers {
		peers[i] = httpd.Peer{ID: srv.ID(), HTTPAddr: srv.Addr()}
	}
	r := NewRebalancer(cfg, c.store, peers)
	c.rb = startLoop(func(stop <-chan struct{}) { r.Run(period, stop, func(error) {}) })
}

// StopRebalancer halts the rebalance loop. Safe to call repeatedly or
// with no rebalancer attached.
func (c *Cluster) StopRebalancer() { c.rb.halt() }

// every runs fn each period until stop closes.
func every(period time.Duration, stop <-chan struct{}, fn func()) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// loop is one of the cluster's background loops — the monitor's collect
// loop and the rebalancer — running on its own goroutine until halted.
type loop struct {
	stop, done chan struct{}
	once       sync.Once
}

// startLoop runs run on a new goroutine, handing it the stop channel.
func startLoop(run func(stop <-chan struct{})) *loop {
	l := &loop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		run(l.stop)
	}()
	return l
}

// halt stops the loop and waits for it to exit. Safe to call repeatedly,
// and on a nil loop.
func (l *loop) halt() {
	if l == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
}
