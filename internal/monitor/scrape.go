package monitor

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
)

// Source is one node's metrics feed. Scrape returns the node's current
// sample set, or an error when the node is unreachable — the monitor
// records the failure as sweb_monitor_up 0 and keeps the last good data.
type Source interface {
	Node() string
	Scrape() ([]metrics.Sample, error)
}

// RegistrySource scrapes an in-process Registry — the simulator path. The
// registry's text exposition is rendered and re-parsed rather than read
// directly so both substrates exercise the identical WriteText→ParseText
// pipeline the live scraper uses.
type RegistrySource struct {
	Name     string
	Registry *metrics.Registry
	// Up, when set, gates the scrape: false models an unreachable node
	// (the simulator's killed-node analogue of a refused TCP dial).
	Up func() bool
}

func (s *RegistrySource) Node() string { return s.Name }

func (s *RegistrySource) Scrape() ([]metrics.Sample, error) {
	if s.Up != nil && !s.Up() {
		return nil, fmt.Errorf("monitor: node %s down", s.Name)
	}
	var b strings.Builder
	if err := s.Registry.WriteText(&b); err != nil {
		return nil, err
	}
	return metrics.ParseText(strings.NewReader(b.String()))
}

// HTTPSource scrapes a live node's /sweb/metrics endpoint with httpmsg's
// one-shot client rather than net/http — same wire format the
// introspection server speaks.
type HTTPSource struct {
	Name    string
	Addr    string
	Timeout time.Duration // default 5s
	Path    string        // default /sweb/metrics
}

func (s *HTTPSource) Node() string { return s.Name }

func (s *HTTPSource) Scrape() ([]metrics.Sample, error) {
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	path := s.Path
	if path == "" {
		path = "/sweb/metrics"
	}
	resp, err := httpmsg.Do(s.Addr, httpmsg.NewRequest("GET", path, false), timeout, 8<<20)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != httpmsg.StatusOK {
		return nil, fmt.Errorf("monitor: scrape %s: HTTP %d", s.Addr, resp.StatusCode)
	}
	return metrics.ParseText(bytes.NewReader(resp.Body))
}

// FuncSource adapts a closure — handy for tests and synthetic feeds.
type FuncSource struct {
	Name string
	Fn   func() ([]metrics.Sample, error)
}

func (s *FuncSource) Node() string                      { return s.Name }
func (s *FuncSource) Scrape() ([]metrics.Sample, error) { return s.Fn() }
