package des

import (
	"fmt"
	"math"
	"slices"
)

// Job is a unit of work submitted to a resource. The resource invokes Done
// when the job's work has been fully served.
type Job struct {
	remaining float64 // work units left (ops, bytes, ...)
	done      func()
	res       *PSResource // nil once the job has finished or been cancelled
}

// PSResource is an egalitarian processor-sharing server: when n jobs are
// active each receives rate/n work units per second. This models a
// time-shared CPU, a disk channel serving interleaved streams, or a shared
// Ethernet bus — exactly the degradation the SWEB paper describes
// ("if there are many requests, the disk transmission performance degrades
// accordingly").
//
// The implementation advances all active jobs lazily at each submit/finish
// event and keeps one completion event, owned by the resource and re-armed
// in place, queued while any job is active. Active jobs live in a slice in
// submission order, so simultaneous completions fire in submission order
// with no sort. Each operation walks that contiguous slice twice (advance,
// then the least remaining work): O(n), at a mean of about 80 jobs on the
// Table-1 ladder and a few hundred at peak. Virtual-time finish tags would
// make an operation O(log n), but they compute finish instants by a
// different float path, so a rounded-up microsecond could flip and the
// simulator's results would no longer be bit for bit those of this form.
type PSResource struct {
	sim  *Simulator
	name string
	rate float64 // work units per second when uncontended

	jobs     []*Job // active jobs, in submission order
	finished []*Job // finishDue's scratch, reused across completions
	last     Time   // last time remaining-work was advanced
	next     Event  // completion event, queued iff len(jobs) > 0
	fire     func() // r.finishDue, bound once so re-arming never allocates

	// Accounting for utilization/overhead reports (Table 5, Sec. 4.3).
	busy      Time    // total time with >=1 active job
	served    float64 // total work completed
	completed int64
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
	r := &PSResource{sim: sim, name: name, rate: rate, last: sim.Now(), next: Event{index: -1}}
	r.fire = r.finishDue
	return r
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
	for _, j := range r.jobs {
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
	j := &Job{remaining: math.Max(work, 0), done: done, res: r}
	r.jobs = append(r.jobs, j)
	r.reschedule()
	return j
}

// CancelJob removes a job without firing its completion callback.
func (r *PSResource) CancelJob(j *Job) {
	if j == nil || j.res != r {
		return
	}
	r.advance()
	i := slices.Index(r.jobs, j)
	r.jobs = slices.Delete(r.jobs, i, i+1)
	j.res, j.done = nil, nil
	r.reschedule()
}

// reschedule re-arms the completion event for the job with the least
// remaining work, or dequeues it when the resource has gone idle.
func (r *PSResource) reschedule() {
	if len(r.jobs) == 0 {
		r.sim.Cancel(&r.next)
		return
	}
	minRem := math.Inf(1)
	for _, j := range r.jobs {
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
	r.sim.rearm(&r.next, r.sim.Now()+dt, r.fire)
}

// finishDue completes every job whose remaining work has reached zero, in
// submission order, compacting the survivors in place.
func (r *PSResource) finishDue() {
	r.advance()
	finished := r.finished[:0]
	kept := r.jobs[:0]
	for _, j := range r.jobs {
		if j.remaining <= 1e-9 {
			j.res = nil
			finished = append(finished, j)
		} else {
			kept = append(kept, j)
		}
	}
	clear(r.jobs[len(kept):])
	r.jobs = kept
	r.completed += int64(len(finished))
	r.reschedule()
	for _, j := range finished {
		if j.done != nil {
			j.done()
		}
	}
	clear(finished)
	r.finished = finished[:0]
}
