package simsrv

import (
	"strconv"

	"sweb/internal/flight"
	"sweb/internal/observe"
)

// FlightDump snapshots node x's black box — the simulator analogue of
// scraping /sweb/flight. AtSeconds values are virtual seconds from sim
// start, so EpochUnix stays zero (the DES has no wall clock).
func (c *Cluster) FlightDump(x int) flight.Dump {
	d := c.obs[x].Flight().Dump()
	d.Node = x
	return d
}

// finish is the single point a simulated request is finalized: it builds
// rs's one record at node — the node that served it, or that turned it
// away with a 503 — and hands it to that node's observer. A served
// request carries the policy, the serving node as decision target and the
// document-heat inputs; a refusal records no placement (Target -1). drop
// is the sweb_drops_total cause ("" when served, or when the refusing node
// is down and counts nothing). A timed-out request is stamped status 0 —
// the client gave up before the response was usable — which routes it to
// the notable ring, exactly as a live node's failed response write does.
func (c *Cluster) finish(rs *request, node, status int, drop string) {
	rec := flight.Record{
		AtSeconds:        rs.issued.ToSeconds(),
		Node:             node,
		ConnID:           rs.id,
		Path:             rs.path,
		Status:           status,
		Target:           -1,
		Redirected:       rs.redirects > 0,
		CacheHit:         rs.cacheHit,
		PredictedSeconds: -1,
		ParseSeconds:     rs.ph.Preprocess,
		AnalyzeSeconds:   rs.ph.Analysis,
		FulfillSeconds:   rs.ph.Transfer,
		TTFBSeconds:      -1,
		TotalSeconds:     (c.Sim.Now() - rs.issued).ToSeconds(),
		Drop:             drop,
		Owner:            -1,
	}
	if rs.hasTTFB {
		rec.TTFBSeconds = (rs.ttfbAt - rs.issued).ToSeconds()
	}
	// The trace id is the string a metrics exemplar holds, so a burn-rate
	// breach resolves to this record.
	if c.cfg.Trace.Enabled() && rs.tid >= 0 {
		rec.TraceID = strconv.FormatInt(rs.tid, 10)
	}
	if status != 503 {
		rec.Bytes = rs.file.Size
		if status == 404 {
			rec.Bytes = errorResponseBytes
		}
		rec.Policy = c.policy.Name()
		rec.Target = node
		if rs.hasPred {
			rec.PredictedSeconds = rs.predicted
		}
		cgi := rs.fetchPhase == observe.PhaseCGI
		if rs.found && !cgi {
			rec.Owner = rs.file.Owner
		}
		rec.Replicas = len(rs.file.ReplicaSet())
		rec.Relay = rs.fetchPhase == observe.PhaseFetchNFS
		rec.Miss = !cgi && !rs.cacheHit
	}
	c.obs[node].Finish(rec)
}
