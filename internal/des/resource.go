package des

import (
	"fmt"
	"math"
)

// Job is a unit of work submitted to a resource. The resource invokes Done
// when the job's work has been fully served.
type Job struct {
	remaining float64 // work units left (ops, bytes, ...)
	done      func()
	start     Time
	seq       int64 // submission order, for deterministic completion ties
	res       *PSResource
}

// PSResource is an egalitarian processor-sharing server: when n jobs are
// active each receives rate/n work units per second. This models a
// time-shared CPU, a disk channel serving interleaved streams, or a shared
// Ethernet bus — exactly the degradation the SWEB paper describes
// ("if there are many requests, the disk transmission performance degrades
// accordingly").
//
// The implementation advances all active jobs lazily at each submit/finish
// event and keeps the next completion event scheduled. Cost is O(n) per
// event, which is ample for the cluster sizes in the paper.
type PSResource struct {
	sim  *Simulator
	name string
	rate float64 // work units per second when uncontended

	jobs map[*Job]struct{}
	last Time   // last time remaining-work was advanced
	next *Event // pending completion event

	// Accounting for utilization/overhead reports (Table 5, Sec. 4.3).
	busy      Time    // total time with >=1 active job
	served    float64 // total work completed
	completed int64
	subSeq    int64 // next job sequence number
	// background is phantom elastic load: a constant number of fictitious
	// jobs that always compete for the resource (models "Ethernet shared
	// by other UCSB machines"). May be fractional.
	background float64
}

// NewPSResource creates a processor-sharing resource with the given
// uncontended service rate in work units per second.
func NewPSResource(sim *Simulator, name string, rate float64) *PSResource {
	if rate <= 0 {
		panic(fmt.Sprintf("des: resource %q needs positive rate, got %g", name, rate))
	}
	return &PSResource{sim: sim, name: name, rate: rate, jobs: make(map[*Job]struct{}), last: sim.Now()}
}

// SetRate changes the service rate, first advancing all in-flight work at
// the old rate. Used for dynamic degradation scenarios.
func (r *PSResource) SetRate(rate float64) {
	if rate <= 0 {
		panic("des: SetRate requires positive rate")
	}
	r.advance()
	r.rate = rate
	r.reschedule()
}

// SetBackground sets the phantom competing load (number of always-active
// fictitious jobs, fractional allowed).
func (r *PSResource) SetBackground(n float64) {
	if n < 0 {
		panic("des: negative background load")
	}
	r.advance()
	r.background = n
	r.reschedule()
}

// Load returns the instantaneous number of active jobs, excluding phantom
// background load. This is what loadd samples.
func (r *PSResource) Load() int { return len(r.jobs) }

// BusyTime returns the cumulative time during which at least one real job
// was active.
func (r *PSResource) BusyTime() Time { r.advance(); return r.busy }

// Served returns total completed work units.
func (r *PSResource) Served() float64 { r.advance(); return r.served }

// Completed returns the count of finished jobs.
func (r *PSResource) Completed() int64 { return r.completed }

// Utilization returns busy time divided by elapsed time since t0.
func (r *PSResource) Utilization(t0 Time) float64 {
	elapsed := r.sim.Now() - t0
	if elapsed <= 0 {
		return 0
	}
	r.advance()
	return float64(r.busy) / float64(elapsed)
}

// perJobRate returns the current service rate seen by each active job.
func (r *PSResource) perJobRate() float64 {
	n := float64(len(r.jobs)) + r.background
	if n <= 0 {
		return r.rate
	}
	return r.rate / n
}

// advance applies elapsed service to all active jobs.
func (r *PSResource) advance() {
	now := r.sim.Now()
	if now == r.last {
		return
	}
	elapsed := now - r.last
	r.last = now
	if len(r.jobs) == 0 {
		return
	}
	r.busy += elapsed
	per := r.perJobRate() * elapsed.ToSeconds()
	for j := range r.jobs {
		w := per
		if j.remaining < w {
			w = j.remaining
		}
		j.remaining -= w
		if j.remaining < 1e-9 {
			j.remaining = 0
		}
		r.served += w
	}
}

// Submit enqueues work on the resource; done fires when it completes.
// Zero or negative work completes after the next event dispatch (still
// asynchronously, preserving event ordering).
func (r *PSResource) Submit(work float64, done func()) *Job {
	r.advance()
	j := &Job{remaining: math.Max(work, 0), done: done, start: r.sim.Now(), seq: r.subSeq, res: r}
	r.subSeq++
	r.jobs[j] = struct{}{}
	r.reschedule()
	return j
}

// CancelJob removes a job without firing its completion callback.
func (r *PSResource) CancelJob(j *Job) {
	if j == nil || j.res != r {
		return
	}
	if _, ok := r.jobs[j]; !ok {
		return
	}
	r.advance()
	delete(r.jobs, j)
	j.done = nil
	r.reschedule()
}

// reschedule recomputes the next completion event.
func (r *PSResource) reschedule() {
	if r.next != nil {
		r.sim.Cancel(r.next)
		r.next = nil
	}
	if len(r.jobs) == 0 {
		return
	}
	minRem := math.Inf(1)
	for j := range r.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	per := r.perJobRate()
	var dt Time
	if minRem <= 0 {
		dt = 0
	} else {
		secs := minRem / per
		dt = Time(math.Ceil(secs * float64(Second)))
		if dt < 1 {
			dt = 1
		}
	}
	r.next = r.sim.After(dt, r.finishDue)
}

// finishDue completes every job whose remaining work has reached zero.
func (r *PSResource) finishDue() {
	r.next = nil
	r.advance()
	var finished []*Job
	for j := range r.jobs {
		if j.remaining <= 1e-9 {
			finished = append(finished, j)
		}
	}
	// Deterministic completion order: map iteration order varies, so order
	// finished jobs by submission sequence.
	for i := 1; i < len(finished); i++ {
		for k := i; k > 0 && finished[k].seq < finished[k-1].seq; k-- {
			finished[k], finished[k-1] = finished[k-1], finished[k]
		}
	}
	for _, j := range finished {
		delete(r.jobs, j)
		r.completed++
	}
	r.reschedule()
	for _, j := range finished {
		if j.done != nil {
			j.done()
		}
	}
}
