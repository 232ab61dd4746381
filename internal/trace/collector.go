package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Collector merges per-node event streams — each timed in seconds since
// its own recorder's epoch — onto one shared absolute clock and groups
// them by trace id into end-to-end spans. This is the stitching half of
// distributed tracing: every live node serves its raw stream (plus its
// epoch as a Unix timestamp) under /sweb/trace, and the collector turns
// those per-node fragments into the paper's Figure 1 cross-node picture.
type Collector struct {
	mu      sync.Mutex
	streams []stream
}

type stream struct {
	epoch  float64 // the stream's time zero, as Unix seconds
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add ingests one node's event stream. epochUnix anchors the stream's
// relative At values to the wall clock (Unix seconds); pass 0 for streams
// already on a shared clock (e.g. a simulator run, or several nodes
// sharing one recorder and epoch).
func (c *Collector) Add(epochUnix float64, events []Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.streams = append(c.streams, stream{
		epoch:  epochUnix,
		events: append([]Event(nil), events...),
	})
}

// Events returns every collected event on the shared clock, sorted by
// time. Events without a trace id get a synthetic per-stream one, so two
// nodes' unrelated local request ids can never merge by accident.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for si, st := range c.streams {
		for _, e := range st.events {
			e.At += st.epoch
			if e.Trace == "" {
				e.Trace = TraceID(fmt.Sprintf("untraced-%d-%d", si, e.Req))
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Span is one end-to-end request: every event recorded under one trace
// id, across however many nodes it touched, time-ordered on the shared
// clock.
type Span struct {
	Trace  TraceID
	Events []Event
}

// Start returns the span's first event time (0 for an empty span).
func (s Span) Start() float64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[0].At
}

// Nodes returns the distinct server nodes (>= 0) the span touched,
// ascending.
func (s Span) Nodes() []int {
	seen := map[int]bool{}
	for _, e := range s.Events {
		if e.Node >= 0 {
			seen[e.Node] = true
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Kinds returns the span's event kinds in time order.
func (s Span) Kinds() []Kind {
	out := make([]Kind, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.Kind
	}
	return out
}

// Redirection returns the span's measured t_redirection — the total gap
// between each 302 and the connection it caused on the target node — and
// whether the span completed at least one redirect hop.
func (s Span) Redirection() (float64, bool) {
	total, hops := 0.0, 0
	pending, havePending := 0.0, false
	for _, e := range s.Events {
		switch e.Kind {
		case EvRedirected:
			pending, havePending = e.At, true
		case EvConnected:
			if havePending && e.At >= pending {
				total += e.At - pending
				hops++
				havePending = false
			}
		}
	}
	return total, hops > 0
}

// Spans groups the collected events by trace, each span time-ordered,
// the slice ordered by span start time.
func (c *Collector) Spans() []Span {
	byTrace := map[TraceID][]Event{}
	for _, e := range c.Events() {
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
	}
	out := make([]Span, 0, len(byTrace))
	for id, evs := range byTrace {
		out = append(out, Span{Trace: id, Events: evs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start() != out[j].Start() {
			return out[i].Start() < out[j].Start()
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// Span returns the stitched span for one trace id.
func (c *Collector) Span(id TraceID) (Span, bool) {
	var evs []Event
	for _, e := range c.Events() {
		if e.Trace == id {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return Span{}, false
	}
	return Span{Trace: id, Events: evs}, true
}

// Summarize reduces the stitched stream with the shared aggregator; the
// redirected→connected phase is the cluster's measured t_redirection.
func (c *Collector) Summarize() Summary {
	return Summarize(c.Events())
}
