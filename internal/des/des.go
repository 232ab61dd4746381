// Package des implements a deterministic discrete-event simulation engine
// with shared-resource models (processor sharing and FIFO service) used to
// simulate the multicomputer substrate that SWEB runs on.
//
// Time is kept as int64 microseconds so that runs are exactly reproducible
// across platforms. Events scheduled for the same instant fire in the order
// they were scheduled (a monotonically increasing sequence number breaks
// ties), which keeps the simulation deterministic even under heavy fan-out.
package des

import (
	"container/heap"
	"fmt"
)

// Time is a simulated instant or duration in microseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// ToSeconds converts t to floating-point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.ToSeconds()) }

// Event is a scheduled callback. Events are single-shot; cancelling an event
// that has already fired is a no-op.
type Event struct {
	at    Time
	seq   int64
	fn    func()
	index int // heap index, -1 once fired or cancelled
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is ready to use, starting at time 0.
type Simulator struct {
	now     Time
	seq     int64
	events  eventHeap
	stopped bool
	fired   int64
}

// New returns a simulator starting at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// EventsFired reports how many events have executed so far.
func (s *Simulator) EventsFired() int64 { return s.fired }

// Pending reports how many events are scheduled but not yet fired.
func (s *Simulator) Pending() int { return len(s.events) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality, which is always a bug in the caller.
func (s *Simulator) At(t Time, fn func()) *Event {
	e := &Event{index: -1}
	s.rearm(e, t, fn)
	return e
}

// After schedules fn to run d microseconds from now. Negative d panics.
func (s *Simulator) After(d Time, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// rearm (re)schedules e, queued or not, to run fn at t with a fresh
// sequence number: the tie order Cancel then At gives, without allocating
// when the caller owns e.
func (s *Simulator) rearm(e *Event, t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	if e.index >= 0 {
		heap.Fix(&s.events, e.index)
	} else {
		heap.Push(&s.events, e)
	}
}

// Cancel removes a pending event. It is safe to cancel an event that has
// already fired or been cancelled.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.events, e.index)
	e.index = -1
	e.fn = nil
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next pending event, if any, and reports whether one fired.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*Event)
	s.now = e.at
	fn := e.fn
	e.fn = nil
	s.fired++
	if fn != nil {
		fn()
	}
	return true
}

// Run executes events until the queue is empty, the horizon is passed, or
// Stop is called. Events scheduled exactly at the horizon still fire.
// It returns the simulated time when execution stopped.
func (s *Simulator) Run(until Time) Time {
	s.stopped = false
	for !s.stopped && len(s.events) > 0 {
		if s.events[0].at > until {
			s.now = until
			return s.now
		}
		s.Step()
	}
	if s.now < until && len(s.events) == 0 {
		s.now = until
	}
	return s.now
}

// RunAll executes every pending event regardless of horizon.
func (s *Simulator) RunAll() Time {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
	return s.now
}
