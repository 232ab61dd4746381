package httpd

import "sweb/internal/heat"

// HeatDump snapshots the heat sketch with the node identity filled in —
// the /sweb/heat payload.
func (s *Server) HeatDump() heat.Dump {
	d := s.obs.Heat().Dump()
	d.Node = s.cfg.ID
	return d
}

// hotPaths is the ranking /sweb/status surfaces: the heat sketch when
// enabled (so relay- and miss-heavy documents appear, not just cache
// residents), else the cache's LRU-derived view.
func (s *Server) hotPaths(n int) []string {
	if h := s.obs.Heat(); h != nil {
		return h.Hot(n)
	}
	if s.cache != nil {
		return s.cache.Hot(n)
	}
	return nil
}
