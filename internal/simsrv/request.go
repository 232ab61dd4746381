package simsrv

import (
	"math"

	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/model"
	"sweb/internal/observe"
	"sweb/internal/oracle"
	"sweb/internal/stats"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// request carries one HTTP request through the four-phase lifecycle.
type request struct {
	path   string
	domain string
	file   storage.File
	found  bool
	demand oracle.Demand

	issued    des.Time
	mark      des.Time // start of the current phase
	redirects int
	servedBy  int
	tid       int64 // trace request id (-1 when tracing is off)
	ph        stats.PhaseBreakdown

	fetchPhase string  // phase-histogram cell the fulfill path lands in
	predicted  float64 // broker's t_s estimate for serving here
	hasPred    bool

	// Flight-recorder state: the connection id, the node the request last
	// arrived at (where a refusal is attributed), whether fulfillment hit
	// the page cache, and when the first response byte left the server.
	id       int64
	entry    int
	cacheHit bool
	ttfbAt   des.Time
	hasTTFB  bool
}

const errorResponseBytes = 512 // a 404 body plus headers

// arrive runs the accept path at node x: the connection is refused if the
// node is down or its accept capacity (process table + listen backlog) is
// exhausted; otherwise the request enters preprocessing.
func (c *Cluster) arrive(rs *request, x int) {
	rs.entry = x
	if !c.up[x] {
		c.trace(rs, trace.EvRefused, x, "node down")
		c.drop(rs, stats.DropUnavailable, "")
		return
	}
	obs := c.obs[x]
	if c.inflight[x] >= c.cfg.Specs[x].AcceptQueue {
		obs.Event(trace.EvRefused, rs.tid, c.nowSec(), "accept capacity", "")
		c.drop(rs, stats.DropRefused, "refused")
		return
	}
	c.inflight[x]++
	obs.Event(trace.EvConnected, rs.tid, c.nowSec(), "", "")
	rs.mark = c.Sim.Now()
	// "The server parses the HTTP commands, and completes the pathname
	// given, determining appropriate permissions along the way."
	c.nodes[x].CPUWork(model.ActParse, c.cfg.PreprocessOps, func() {
		d := (c.Sim.Now() - rs.mark).ToSeconds()
		rs.ph.Preprocess += d
		obs.Event(trace.EvParsed, rs.tid, c.nowSec(), "", "")
		obs.Phase(observe.PhaseParse, d)
		c.analyze(rs, x)
	})
}

// analyze charges the broker's cost-estimation CPU, then decides.
func (c *Cluster) analyze(rs *request, x int) {
	rs.mark = c.Sim.Now()
	c.nodes[x].CPUWork(model.ActSchedule, c.cfg.AnalysisOps, func() {
		d := (c.Sim.Now() - rs.mark).ToSeconds()
		rs.ph.Analysis += d
		c.obs[x].Phase(observe.PhaseAnalyze, d)
		c.decide(rs, x)
	})
}

// decide consults the policy and either fulfills locally or redirects.
func (c *Cluster) decide(rs *request, x int) {
	req := core.Request{
		Path:          rs.path,
		Arrived:       x,
		RedirectCount: rs.redirects,
	}
	if rs.found {
		req.Size = rs.file.Size
		req.Owner = rs.file.Owner
		req.Replicas = rs.file.Replicas
		req.CachedLocal = c.nodes[x].Cache.Peek(rs.path)
		if c.cfg.CacheHints > 0 {
			// Cooperative caching: mark peers whose last digest said they
			// hold this document in memory.
			req.CachedAt = make([]bool, len(c.nodes))
			req.CachedAt[x] = req.CachedLocal
			for y := range c.nodes {
				if y != x && c.tables[x].CachedAt(y, rs.path, c.nowSec()) {
					req.CachedAt[y] = true
				}
			}
		}
		d := rs.demand
		req.Ops = d.BaseOps + d.OpsPerByte*float64(rs.file.Size) + d.CGIOps + rs.file.CGIOps
		req.DiskBytes = d.DiskBytesPerByte * float64(rs.file.Size)
		req.PinnedLocal = rs.file.CGI
	} else {
		// Errors are "always completed at x" (Sec. 3.2 step 2).
		req.PinnedLocal = true
		req.Owner = x
	}
	loads := c.tables[x].Snapshot(len(c.nodes), c.nowSec())
	loads[x] = c.liveRow(x) // a node knows its own load precisely
	var target int
	est := math.NaN()
	if c.cfg.Dispatcher && x == 0 && rs.redirects == 0 && !req.PinnedLocal {
		target = c.dispatcherChoose(req, loads)
	} else {
		dec := c.policy.Choose(req, x, loads)
		target = dec.Target
		est = dec.Estimate
	}
	if target < 0 || target >= len(c.nodes) {
		target = x
	}
	obs := c.obs[x]
	obs.EventN(trace.EvAnalyzed, rs.tid, c.nowSec(), "target=", target)
	if target == x {
		if !math.IsNaN(est) && !math.IsInf(est, 0) {
			rs.predicted = est
			rs.hasPred = true
		}
		c.fulfill(rs, x)
		return
	}
	if c.cfg.Reassign == ReassignForward {
		// Server-side forwarding: the request never returns to the
		// client; node x proxies it to the target and relays the
		// response. The client keeps one connection; the cluster pays
		// double handling (the cost the paper avoided with redirection).
		c.tables[x].Bump(target)
		obs.EventN(trace.EvForwarded, rs.tid, c.nowSec(), "to=", target)
		rs.mark = c.Sim.Now()
		c.nodes[x].CPUWork(model.ActSchedule, c.cfg.RedirectOps, func() {
			rs.redirects++
			if !c.up[target] {
				// Forwarding has no second chance: the relay fails.
				c.inflight[x]--
				c.trace(rs, trace.EvRefused, target, "forward target down")
				c.drop(rs, stats.DropUnavailable, "unavailable")
				return
			}
			rs.ph.Redirect += (c.Sim.Now() - rs.mark).ToSeconds()
			c.fulfillForwarded(rs, x, target)
		})
		return
	}
	// Redirect: bump the local view of the chosen peer so the next stale
	// decision does not dogpile it, charge the 302 generation, then the
	// client follows the Location header to the new node.
	c.tables[x].Bump(target)
	obs.EventN(trace.EvRedirected, rs.tid, c.nowSec(), "to=", target)
	rs.mark = c.Sim.Now()
	c.nodes[x].CPUWork(model.ActSchedule, c.cfg.RedirectOps, func() {
		c.inflight[x]--
		rs.redirects++
		obs.Phase(observe.PhaseRedirect, (c.Sim.Now() - rs.mark).ToSeconds())
		// "Twice the estimated latency of the connection between the
		// server and the client plus the time for a server to set up a
		// connection."
		travel := 2*c.cfg.Client.LatencyOneWay + des.Seconds(c.cfg.Params.ConnectSeconds)
		hopFrom := c.Sim.Now()
		c.Sim.After(travel, func() {
			rs.ph.Redirect += (c.Sim.Now() - rs.mark).ToSeconds()
			if c.up[target] {
				// The hop is measured where the redirected connection
				// lands, matching the live redirect_hop cell.
				c.obs[target].Phase(observe.PhaseRedirectHop, (c.Sim.Now() - hopFrom).ToSeconds())
			}
			c.arrive(rs, target)
		})
	})
}

// dispatcherChoose is the centralized assignment: the distributor never
// serves documents itself; it picks the minimum-estimate worker (or, for
// non-SWEB policies, rotates).
func (c *Cluster) dispatcherChoose(req core.Request, loads []core.NodeLoad) int {
	sweb, ok := c.policy.(*core.SWEB)
	if !ok {
		// Baseline dispatcher: rotate over live workers.
		n := len(c.nodes)
		for k := 1; k < n; k++ {
			w := 1 + int(c.dispatchNext)%(n-1)
			c.dispatchNext++
			if c.up[w] {
				return w
			}
		}
		return 0
	}
	best, bestNode := -1.0, -1
	for w := 1; w < len(c.nodes); w++ {
		cb := sweb.EstimateCost(req, 0, w, loads)
		if cb.Infeasible {
			continue
		}
		if bestNode < 0 || cb.Total < best {
			best, bestNode = cb.Total, w
		}
	}
	if bestNode < 0 {
		return 0
	}
	return bestNode
}

// fulfillForwarded serves the request at worker y while relaying every
// chunk back through proxy x to the client. Both nodes hold a handler slot
// for the duration; the worker's bytes cross the interconnect twice as
// often as under redirection.
func (c *Cluster) fulfillForwarded(rs *request, x, y int) {
	rs.servedBy = y
	if c.inflight[y] >= c.cfg.Specs[y].AcceptQueue {
		c.inflight[x]--
		c.obs[y].Event(trace.EvRefused, rs.tid, c.nowSec(), "forward target full", "")
		rs.entry = y // the 503 record lands where the refusal happened
		c.drop(rs, stats.DropRefused, "refused")
		return
	}
	c.inflight[y]++
	worker := c.nodes[y]
	proxy := c.nodes[x]
	f := rs.file
	if !rs.found || f.CGI {
		// Errors and CGI are pinned and never reach here (PinnedLocal).
		c.inflight[y]--
		c.fulfill(rs, x)
		return
	}
	rs.mark = c.Sim.Now()
	releaseY := worker.PinBuffer(f.Size)
	releaseX := proxy.PinBuffer(f.Size)
	cached := worker.Cache.Contains(f.Path)
	rs.cacheHit = cached
	if cached {
		worker.Cache.Touch(f.Path)
	}
	const relayOpsPerByte = 0.06 // proxy-side copy between sockets
	finishWorker := func() {
		releaseY()
		c.inflight[y]--
	}
	var pump func(off int64)
	pump = func(off int64) {
		chunk := c.cfg.ChunkBytes
		if off+chunk > f.Size {
			chunk = f.Size - off
		}
		last := off+chunk >= f.Size
		fetch := func(then func()) {
			if cached {
				worker.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*float64(chunk), then)
				return
			}
			work := float64(chunk)
			if worker.MemoryPressure() {
				work *= worker.Spec.SwapPenalty
				worker.SwappedOps++
			}
			worker.DiskReads++
			worker.DiskBytes += chunk
			worker.Disk.Submit(work, then)
		}
		fetch(func() {
			if last && !cached {
				worker.Cache.Insert(f.Path, f.Size)
			}
			worker.CPUWork(model.ActFulfill, rs.demand.OpsPerByte*float64(chunk), func() {
				c.net.InternalTransfer(y, x, chunk, func() {
					proxy.CPUWork(model.ActFulfill, relayOpsPerByte*float64(chunk), func() {
						c.bytesOut[x] += chunk
						if !rs.hasTTFB {
							rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
						}
						c.net.ClientTransfer(x, c.cfg.Client, chunk,
							func() {
								if last {
									finishWorker()
									c.finishServerSide(rs, x, releaseX)
								} else {
									pump(off + chunk)
								}
							},
							func() {
								if last {
									c.complete(rs)
								}
							})
					})
				})
			})
		})
	}
	if f.Size == 0 {
		finishWorker()
		c.finishServerSide(rs, x, releaseX)
		c.complete(rs)
		return
	}
	worker.CPUWork(model.ActFulfill, rs.demand.BaseOps, func() { pump(0) })
}

// fulfill serves the request at node x "in the normal HTTP server manner".
func (c *Cluster) fulfill(rs *request, x int) {
	rs.servedBy = x
	node := c.nodes[x]
	if !rs.found {
		// 404: a small generated body, no disk involved.
		rs.mark = c.Sim.Now()
		node.CPUWork(model.ActFulfill, rs.demand.BaseOps+float64(errorResponseBytes)*rs.demand.OpsPerByte, func() {
			c.sendOnly(rs, x, errorResponseBytes)
		})
		return
	}
	f := rs.file
	rs.mark = c.Sim.Now()
	if f.CGI {
		c.obs[x].Event(trace.EvCGI, rs.tid, c.nowSec(), "", "")
		rs.fetchPhase = observe.PhaseCGI
		// CGI: fork + compute, then stream the generated result (no
		// static file fetch).
		node.CPUWork(model.ActFulfill, rs.demand.BaseOps, func() {
			node.CPUWork(model.ActCGI, f.CGIOps+rs.demand.CGIOps, func() {
				c.sendOnly(rs, x, f.Size)
			})
		})
		return
	}
	// Static fetch: fork + handler setup, then the chunked
	// read-process-write loop.
	node.CPUWork(model.ActFulfill, rs.demand.BaseOps, func() {
		c.streamFile(rs, x)
	})
}

// sendOnly streams size generated bytes (CGI output, error bodies) to the
// client without touching the disk.
func (c *Cluster) sendOnly(rs *request, x int, size int64) {
	node := c.nodes[x]
	release := node.PinBuffer(size)
	var sendChunk func(off int64)
	sendChunk = func(off int64) {
		chunk := c.cfg.ChunkBytes
		if off+chunk > size {
			chunk = size - off
		}
		last := off+chunk >= size
		node.CPUWork(model.ActFulfill, rs.demand.OpsPerByte*float64(chunk), func() {
			c.bytesOut[x] += chunk
			if !rs.hasTTFB {
				rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
			}
			c.net.ClientTransfer(x, c.cfg.Client, chunk,
				func() {
					if last {
						c.finishServerSide(rs, x, release)
					} else {
						sendChunk(off + chunk)
					}
				},
				func() {
					if last {
						c.complete(rs)
					}
				})
		})
	}
	sendChunk(0)
}

// streamFile runs the chunked read → packetize → write loop for a static
// file, fetching from the local disk, the page cache, or the owning node
// over the interconnect.
func (c *Cluster) streamFile(rs *request, x int) {
	node := c.nodes[x]
	f := rs.file
	release := node.PinBuffer(f.Size)

	// One cache decision per file: partial files are not cached.
	cachedHere := node.Cache.Contains(f.Path)
	rs.cacheHit = cachedHere
	if cachedHere {
		node.Cache.Touch(f.Path)
	}
	remote := !f.HasReplica(x)
	source := x
	if remote {
		source = c.pickFetchSource(rs, x)
	}
	srcNode := c.nodes[source]
	srcCached := false
	if remote && !cachedHere {
		srcCached = srcNode.Cache.Peek(f.Path)
	}
	diskPerByte := rs.demand.DiskBytesPerByte
	if diskPerByte <= 0 {
		diskPerByte = 1
	}

	if remote && !cachedHere {
		c.obs[x].EventN(trace.EvFetchNFS, rs.tid, c.nowSec(), "source=", source)
		c.obs[x].ReplicaFetch(f.Path, source)
		rs.fetchPhase = observe.PhaseFetchNFS
	} else {
		c.obs[x].Event(trace.EvFetchLocal, rs.tid, c.nowSec(), "", "")
		rs.fetchPhase = observe.PhaseFetchLocal
	}
	// fetch obtains one chunk into local memory, then calls then().
	fetch := func(chunk int64, then func()) {
		switch {
		case cachedHere:
			// Buffer-cache hit: just the memory copy.
			node.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*float64(chunk), then)
		case !remote:
			work := diskPerByte * float64(chunk)
			if node.MemoryPressure() {
				work *= node.Spec.SwapPenalty
				node.SwappedOps++
			}
			node.DiskReads++
			node.DiskBytes += chunk
			node.Disk.Submit(work, then)
		case srcCached:
			// The NFS server answers from its page cache.
			c.net.InternalTransfer(source, x, chunk, then)
		default:
			work := diskPerByte * float64(chunk)
			if srcNode.MemoryPressure() {
				work *= srcNode.Spec.SwapPenalty
				srcNode.SwappedOps++
			}
			srcNode.DiskReads++
			srcNode.DiskBytes += chunk
			srcNode.Disk.Submit(work, func() {
				c.net.InternalTransfer(source, x, chunk, then)
			})
		}
	}

	var pump func(off int64)
	pump = func(off int64) {
		chunk := c.cfg.ChunkBytes
		if off+chunk > f.Size {
			chunk = f.Size - off
		}
		last := off+chunk >= f.Size
		fetch(chunk, func() {
			if last && !cachedHere {
				// The whole file has now passed through memory; it
				// lands in the serving node's page cache, and on a
				// remote read the source's NFS server cached it too.
				node.Cache.Insert(f.Path, f.Size)
				if remote && !srcCached {
					srcNode.Cache.Insert(f.Path, f.Size)
				}
			}
			node.CPUWork(model.ActFulfill, rs.demand.OpsPerByte*float64(chunk), func() {
				c.bytesOut[x] += chunk
				if !rs.hasTTFB {
					rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
				}
				c.net.ClientTransfer(x, c.cfg.Client, chunk,
					func() {
						if last {
							c.finishServerSide(rs, x, release)
						} else {
							pump(off + chunk)
						}
					},
					func() {
						if last {
							c.complete(rs)
						}
					})
			})
		})
	}
	if f.Size == 0 {
		c.finishServerSide(rs, x, release)
		c.complete(rs)
		return
	}
	pump(0)
}

// finishServerSide releases the handler slot once the last byte has left
// the server site; the tail of the transfer is pure network drain.
func (c *Cluster) finishServerSide(rs *request, x int, release func()) {
	served := (c.Sim.Now() - rs.mark).ToSeconds()
	rs.ph.Transfer += served
	rs.mark = c.Sim.Now()
	c.obs[x].Event(trace.EvSent, rs.tid, c.nowSec(), "", "")
	if rs.fetchPhase != "" {
		c.obs[x].Phase(rs.fetchPhase, served)
	}
	release()
	c.inflight[x]--
}

// complete records the client-observed outcome.
func (c *Cluster) complete(rs *request) {
	rs.ph.Network += (c.Sim.Now() - rs.mark).ToSeconds()
	resp := (c.Sim.Now() - rs.issued).ToSeconds()
	c.outstanding--
	c.lastDone = c.Sim.Now()
	status, drop := 200, ""
	switch {
	case resp > c.cfg.ClientTimeout.ToSeconds():
		c.trace(rs, trace.EvTimedOut, rs.servedBy, "")
		status, drop = 0, "timeout"
		c.res.RecordDrop(stats.DropTimeout)
	case !rs.found:
		status, drop = 404, "not_found"
	}
	if status != 0 {
		c.trace(rs, trace.EvDelivered, rs.servedBy, "")
		c.res.RecordSuccess(resp, rs.servedBy, rs.redirects > 0, rs.ph)
	}
	c.finish(rs, rs.servedBy, status, drop)
}
