package monitor

import (
	"sort"
	"sync"

	"sweb/internal/observe"
)

// Names of the series the monitor itself writes into its store, next to
// the scraped families.
const (
	// metricUp is 1 when the node's scrape succeeded, 0 when it failed —
	// the monitor's own liveness probe.
	metricUp = observe.MonitorUp
	// metricAlert is 1 while the {rule, node} alert fires, 0 otherwise;
	// exporting alert state as a metric closes the loop (a dashboard or a
	// meta-monitor can scrape the monitor).
	metricAlert = observe.MonitorAlert
)

// Config tunes a Monitor. The zero value works: 15s derivation window,
// DefaultCapacity rings, DefaultRules with default thresholds.
type Config struct {
	// Window is the lookback, in substrate seconds, for every derived
	// signal: rates, windowed quantiles, rule inputs (default 15).
	Window float64
	// Capacity bounds each series ring (default DefaultCapacity).
	Capacity int
	// Rules tunes the default rule thresholds.
	Rules RuleConfig
	// ExtraRules run after the defaults with the same hysteresis driver.
	ExtraRules []Rule
	// OnFire, when set, is invoked after any Collect round in which one
	// or more alerts transitioned to firing, with exactly those alerts.
	// It runs outside the monitor's lock on the Collect caller's
	// goroutine, so it may call back into the monitor — but a slow hook
	// (e.g. writing a diagnostic bundle) delays the next round.
	OnFire func([]Alert)
}

// Alert is one firing (or recently cleared) alert instance.
type Alert struct {
	Rule      string  `json:"rule"`
	Node      string  `json:"node,omitempty"` // "" for cluster-wide rules
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	SinceT    float64 `json:"since_t"`
	Firing    bool    `json:"firing"`
}

// alertState is the hysteresis state machine for one {rule, subject}.
type alertState struct {
	breaches int // consecutive rounds at/above Fire while idle
	clears   int // consecutive rounds below Clear while firing
	firing   bool
	sinceT   float64
	value    float64
}

// Monitor owns the store, the scrape sources, and the rule engine; one
// Collect call is one monitoring round on either substrate's clock.
type Monitor struct {
	mu      sync.Mutex
	cfg     Config
	store   *Store
	sources []Source
	rules   []Rule
	states  map[string]map[string]*alertState // rule -> subject
	nodes   []string                          // every node name ever scraped, in order
	rows    []TimelineRow
	lastT   float64
	rounds  int64
}

// New builds a monitor; attach sources with AddSource, then call Collect
// on whatever cadence the substrate provides.
func New(cfg Config) *Monitor {
	if cfg.Window <= 0 {
		cfg.Window = 15
	}
	rules := DefaultRules(cfg.Rules)
	rules = append(rules, cfg.ExtraRules...)
	return &Monitor{
		cfg:    cfg,
		store:  NewStore(cfg.Capacity),
		rules:  rules,
		states: make(map[string]map[string]*alertState),
	}
}

// AddSource registers one node's scrape source.
func (m *Monitor) AddSource(s Source) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sources = append(m.sources, s)
	m.nodes = append(m.nodes, s.Node())
}

// Store exposes the underlying time-series store.
func (m *Monitor) Store() *Store { return m.store }

// Rounds reports how many Collect rounds have run.
func (m *Monitor) Rounds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}

// Collect runs one monitoring round at time now (seconds on the feeding
// substrate's clock): scrape every source, append the samples, evaluate
// the rules with hysteresis, export alert states back into the store, and
// capture one timeline row per node.
func (m *Monitor) Collect(now float64) {
	m.mu.Lock()
	for _, src := range m.sources {
		node := src.Node()
		samples, err := src.Scrape()
		if err != nil {
			m.store.Append(metricUp, map[string]string{"node": node}, now, 0)
			continue
		}
		m.store.Append(metricUp, map[string]string{"node": node}, now, 1)
		m.store.AppendSamples(node, now, samples)
	}
	view := &View{Store: m.store, Nodes: m.nodes, From: now - m.cfg.Window, To: now}
	var fired []Alert
	for _, rule := range m.rules {
		fired = append(fired, m.evalRule(rule, view, now)...)
	}
	m.captureRows(view, now)
	m.lastT = now
	m.rounds++
	hook := m.cfg.OnFire
	m.mu.Unlock()
	if hook != nil && len(fired) > 0 {
		hook(fired)
	}
}

// evalRule advances one rule's hysteresis machines, exports their states
// as metricAlert samples, and returns the alerts that newly fired this
// round (idle → firing transitions only).
func (m *Monitor) evalRule(rule Rule, view *View, now float64) []Alert {
	var fired []Alert
	vals := rule.Eval(view)
	states := m.states[rule.Name]
	if states == nil {
		states = make(map[string]*alertState)
		m.states[rule.Name] = states
	}
	// A subject the rule stopped reporting reads as zero: its signal is
	// gone, which must eventually clear the alert, never pin it.
	for subject := range states {
		if _, ok := vals[subject]; !ok {
			vals[subject] = 0
		}
	}
	need := rule.For
	if need <= 0 {
		need = 1
	}
	for subject, v := range vals {
		st := states[subject]
		if st == nil {
			st = &alertState{}
			states[subject] = st
		}
		st.value = v
		if st.firing {
			if v < rule.Clear {
				st.clears++
				if st.clears >= need {
					st.firing = false
					st.breaches, st.clears = 0, 0
				}
			} else {
				st.clears = 0
			}
		} else {
			if v >= rule.Fire {
				st.breaches++
				if st.breaches >= need {
					st.firing = true
					st.sinceT = now
					st.clears = 0
					fired = append(fired, Alert{
						Rule: rule.Name, Node: subject,
						Value: v, Threshold: rule.Fire,
						SinceT: now, Firing: true,
					})
				}
			} else {
				st.breaches = 0
			}
		}
		up := 0.0
		if st.firing {
			up = 1
		}
		m.store.Append(metricAlert, map[string]string{"rule": rule.Name, "node": subject}, now, up)
	}
	return fired
}

// Alerts returns the currently firing alerts, sorted by rule then node.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Alert
	for _, rule := range m.rules {
		for subject, st := range m.states[rule.Name] {
			if !st.firing {
				continue
			}
			out = append(out, Alert{
				Rule: rule.Name, Node: subject,
				Value: st.value, Threshold: rule.Fire,
				SinceT: st.sinceT, Firing: true,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// AlertFiring reports whether the {rule, subject} alert is firing now.
func (m *Monitor) AlertFiring(rule, subject string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	states := m.states[rule]
	if states == nil {
		return false
	}
	st := states[subject]
	return st != nil && st.firing
}
