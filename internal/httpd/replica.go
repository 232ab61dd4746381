package httpd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sweb/internal/httpmsg"
)

// Live replica actuation: the rebalancer (in-process controller or the
// swebd -rebalance leader) drives replica-set changes through these two
// mutations plus the /sweb/replicate endpoint. The order is
// materialize-then-announce — the document's bytes land in the docroot
// before the store learns about the replica — so a broker can never route
// an internal fetch at a copy that does not exist yet.

// MaterializeReplica makes this node a replica of path: the document is
// pulled from the cheapest live replica over the internal-fetch path
// (retry budget, health marking, and failover included), written into the
// docroot, and only then recorded in the store. Idempotent: a node that
// already holds the replica answers nil without touching the network.
func (s *Server) MaterializeReplica(path string) error {
	file, ok := s.cfg.Store.Lookup(path)
	if !ok {
		return fmt.Errorf("replicate: unknown document %q", path)
	}
	if file.CGI {
		return fmt.Errorf("replicate: %q is a CGI endpoint, not a document", path)
	}
	if file.HasReplica(s.cfg.ID) {
		return nil
	}
	sources := s.rankedSources(path, file)
	if len(sources) == 0 {
		return fmt.Errorf("replicate: no reachable replica of %q", path)
	}
	resp, err := s.fetchWithRetry(sources, path, "")
	if err != nil {
		return fmt.Errorf("replicate: fetch %q: %w", path, err)
	}
	full := s.localPath(path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if err := os.WriteFile(full, resp.Body, 0o644); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if err := s.cfg.Store.AddReplica(path, s.cfg.ID); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	s.obs.Rebalance("add")
	return nil
}

// DropReplicaLocal retires this node's replica of path: the store forgets
// it first — new requests route elsewhere — then the docroot copy and any
// cached entry go. Dropping the primary is refused by the store.
func (s *Server) DropReplicaLocal(path string) error {
	if err := s.cfg.Store.DropReplica(path, s.cfg.ID); err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.Invalidate(path)
	}
	if err := os.Remove(s.localPath(path)); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.obs.Rebalance("drop")
	return nil
}

// queryParam extracts one key's value from a raw query string ("" when
// absent), the same hand-rolled parsing the sweb markers use.
func queryParam(query, key string) string {
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, key+"="); ok {
			return v
		}
	}
	return ""
}

// serveReplicate answers /sweb/replicate?path=P&node=N&action=add|drop —
// the control-plane verb the rebalancer speaks. The addressed node
// materializes or retires its own copy; every other node just updates its
// ownership map, so a deployment without a shared store converges when
// the rebalancer broadcasts the same call to each member. The response
// reports the resulting replica set.
func (s *Server) serveReplicate(rc *reqConn, req *httpmsg.Request) int {
	fail := func(code int, msg string) int { return s.replyError(rc, code, msg) }
	path, perr := httpmsg.DecodePath(queryParam(req.Query, "path"))
	if perr != nil {
		return fail(httpmsg.StatusBadRequest, "bad path parameter")
	}
	node, err := strconv.Atoi(queryParam(req.Query, "node"))
	if err != nil {
		return fail(httpmsg.StatusBadRequest, "bad or missing node parameter")
	}
	action := queryParam(req.Query, "action")
	if _, ok := s.cfg.Store.Lookup(path); !ok {
		return fail(httpmsg.StatusNotFound, "unknown document")
	}
	switch {
	case action == "add" && node == s.cfg.ID:
		err = s.MaterializeReplica(path)
	case action == "drop" && node == s.cfg.ID:
		err = s.DropReplicaLocal(path)
	case action == "add":
		// Another node holds the bytes (or is fetching them); this node
		// only needs the routing fact. AddReplica is idempotent, so the
		// shared-store deployments of internal/live no-op here.
		err = s.cfg.Store.AddReplica(path, node)
	case action == "drop":
		err = s.cfg.Store.DropReplica(path, node)
	default:
		return fail(httpmsg.StatusBadRequest, "action must be add or drop")
	}
	if err != nil {
		return fail(httpmsg.StatusInternalServerError, err.Error())
	}
	b, _ := json.Marshal(map[string]any{
		"path":     path,
		"node":     node,
		"action":   action,
		"replicas": s.cfg.Store.Replicas(path),
	})
	return s.reply(rc, "application/json", append(b, '\n'))
}
