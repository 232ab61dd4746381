package simsrv

import "sweb/internal/heat"

// HeatDump snapshots node x's sketch — the simulator analogue of
// scraping /sweb/heat. Both substrates fill the same Dump schema; the
// parity test in internal/heat holds them to it.
func (c *Cluster) HeatDump(x int) heat.Dump {
	d := c.obs[x].Heat().Dump()
	d.Node = x
	return d
}

// MergedHeat folds every node's sketch into the cluster-wide ranking —
// what a live deployment gets by scraping and merging /sweb/heat.
func (c *Cluster) MergedHeat() heat.Merged {
	dumps := make([]heat.Dump, c.Nodes())
	for i := range dumps {
		dumps[i] = c.HeatDump(i)
	}
	return heat.Merge(dumps)
}
