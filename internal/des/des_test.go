package des

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).ToSeconds(); got != 2.5 {
		t.Fatalf("ToSeconds = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	sim := New()
	var order []int
	sim.At(30*Millisecond, func() { order = append(order, 3) })
	sim.At(10*Millisecond, func() { order = append(order, 1) })
	sim.At(20*Millisecond, func() { order = append(order, 2) })
	sim.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if sim.Now() != 30*Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		sim.At(Second, func() { order = append(order, i) })
	}
	sim.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	sim := New()
	var at Time
	sim.After(10*Millisecond, func() {
		sim.After(5*Millisecond, func() { at = sim.Now() })
	})
	sim.RunAll()
	if at != 15*Millisecond {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestSchedulingInThePastPanics(t *testing.T) {
	sim := New()
	sim.At(Second, func() {})
	sim.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling before now")
		}
	}()
	sim.At(Millisecond, func() {})
}

func TestCancelPreventsFiring(t *testing.T) {
	sim := New()
	fired := false
	ev := sim.At(Second, func() { fired = true })
	sim.Cancel(ev)
	sim.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and cancelling fired events are no-ops.
	sim.Cancel(ev)
	sim.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	sim := New()
	var got []int
	e1 := sim.At(1*Millisecond, func() { got = append(got, 1) })
	sim.At(2*Millisecond, func() { got = append(got, 2) })
	e3 := sim.At(3*Millisecond, func() { got = append(got, 3) })
	sim.Cancel(e1)
	sim.Cancel(e3)
	sim.RunAll()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	sim := New()
	fired := 0
	sim.At(Second, func() { fired++ })
	sim.At(3*Second, func() { fired++ })
	end := sim.Run(2 * Second)
	if fired != 1 || end != 2*Second {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d", sim.Pending())
	}
	// Continue past the horizon.
	sim.Run(5 * Second)
	if fired != 2 {
		t.Fatalf("fired=%d after second run", fired)
	}
}

func TestRunEventAtExactHorizonFires(t *testing.T) {
	sim := New()
	fired := false
	sim.At(2*Second, func() { fired = true })
	sim.Run(2 * Second)
	if !fired {
		t.Fatal("event at exact horizon did not fire")
	}
}

func TestStopInsideEvent(t *testing.T) {
	sim := New()
	fired := 0
	sim.At(Millisecond, func() { fired++; sim.Stop() })
	sim.At(2*Millisecond, func() { fired++ })
	sim.Run(Second)
	if fired != 1 {
		t.Fatalf("Stop did not halt the loop: fired=%d", fired)
	}
}

func TestEventsFiredCounter(t *testing.T) {
	sim := New()
	for i := 0; i < 7; i++ {
		sim.After(Time(i)*Millisecond, func() {})
	}
	sim.RunAll()
	if sim.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d", sim.EventsFired())
	}
}

func TestEventSchedulesMoreEvents(t *testing.T) {
	sim := New()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			sim.After(Millisecond, recurse)
		}
	}
	sim.After(0, recurse)
	sim.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if sim.Now() != 100*Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

// --- PSResource ----------------------------------------------------------

func TestPSSingleJobTiming(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "cpu", 1000) // 1000 units/s
	var done Time
	r.Submit(500, func() { done = sim.Now() })
	sim.RunAll()
	if got := done.ToSeconds(); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("single job finished at %vs, want 0.5s", got)
	}
}

func TestPSTwoJobsShareEqually(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "disk", 1000)
	var d1, d2 Time
	r.Submit(500, func() { d1 = sim.Now() })
	r.Submit(500, func() { d2 = sim.Now() })
	sim.RunAll()
	// Both share: each takes 1.0s.
	for i, d := range []Time{d1, d2} {
		if got := d.ToSeconds(); math.Abs(got-1.0) > 1e-3 {
			t.Fatalf("job %d finished at %v, want ~1.0s", i, got)
		}
	}
}

func TestPSShortJobLeavesLongJobSpeedsUp(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	var dShort, dLong Time
	r.Submit(250, func() { dShort = sim.Now() })
	r.Submit(750, func() { dLong = sim.Now() })
	sim.RunAll()
	// Short: shares until 250 done at t=0.5. Long: 250 done by 0.5,
	// remaining 500 alone → finishes at 1.0.
	if got := dShort.ToSeconds(); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("short finished at %v", got)
	}
	if got := dLong.ToSeconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("long finished at %v", got)
	}
}

func TestPSLateArrivalSlowsExisting(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	var d1 Time
	r.Submit(1000, func() { d1 = sim.Now() })
	sim.At(500*Millisecond, func() {
		r.Submit(1000, func() {})
	})
	sim.RunAll()
	// First job: 500 units alone (0.5s), then 500 shared (1.0s) → 1.5s.
	if got := d1.ToSeconds(); math.Abs(got-1.5) > 1e-3 {
		t.Fatalf("first job finished at %v, want 1.5s", got)
	}
}

func TestPSBackgroundLoadSlowsService(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "bus", 1000)
	r.SetBackground(1) // one phantom always-on competitor
	var done Time
	r.Submit(500, func() { done = sim.Now() })
	sim.RunAll()
	if got := done.ToSeconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("with background=1 job finished at %v, want 1.0s", got)
	}
}

func TestPSSetRate(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	var done Time
	r.Submit(1000, func() { done = sim.Now() })
	sim.At(500*Millisecond, func() { r.SetRate(500) })
	sim.RunAll()
	// 500 units at 1000/s, then 500 at 500/s → 0.5 + 1.0 = 1.5s.
	if got := done.ToSeconds(); math.Abs(got-1.5) > 1e-3 {
		t.Fatalf("finished at %v, want 1.5s", got)
	}
}

func TestPSZeroWorkCompletesAsync(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	done := false
	r.Submit(0, func() { done = true })
	if done {
		t.Fatal("zero-work job completed synchronously")
	}
	sim.RunAll()
	if !done {
		t.Fatal("zero-work job never completed")
	}
}

func TestPSCancelJob(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	fired := false
	j := r.Submit(1000, func() { fired = true })
	sim.At(100*Millisecond, func() { r.CancelJob(j) })
	sim.RunAll()
	if fired {
		t.Fatal("cancelled job completed")
	}
	if r.Load() != 0 {
		t.Fatalf("load = %d after cancel", r.Load())
	}
	r.CancelJob(j) // idempotent
	r.CancelJob(nil)
}

func TestPSLoadCount(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1e6)
	r.Submit(1e6, func() {})
	r.Submit(1e6, func() {})
	if r.Load() != 2 {
		t.Fatalf("load = %d", r.Load())
	}
	sim.RunAll()
	if r.Load() != 0 {
		t.Fatalf("load after completion = %d", r.Load())
	}
}

func TestPSBusyTimeAndUtilization(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	sim.At(Second, func() {
		r.Submit(1000, func() {})
	})
	sim.RunAll() // busy from t=1 to t=2
	if got := r.BusyTime().ToSeconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("busy = %v", got)
	}
	if got := r.Utilization(0); math.Abs(got-0.5) > 1e-2 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestPSCompletedAndServedCounters(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	for i := 0; i < 5; i++ {
		r.Submit(100, func() {})
	}
	sim.RunAll()
	if r.Completed() != 5 {
		t.Fatalf("completed = %d", r.Completed())
	}
	if math.Abs(r.Served()-500) > 1 {
		t.Fatalf("served = %v", r.Served())
	}
}

func TestPSInvalidRatesPanic(t *testing.T) {
	sim := New()
	for _, fn := range []func(){
		func() { NewPSResource(sim, "bad", 0) },
		func() { NewPSResource(sim, "bad", -1) },
		func() { NewPSResource(sim, "ok", 1).SetRate(0) },
		func() { NewPSResource(sim, "ok", 1).SetBackground(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: work is conserved — the sum of submitted work equals Served()
// once everything completes, for any job mix.
func TestPSWorkConservationProperty(t *testing.T) {
	f := func(works []uint16, gaps []uint8) bool {
		if len(works) == 0 {
			return true
		}
		if len(works) > 64 {
			works = works[:64]
		}
		sim := New()
		r := NewPSResource(sim, "r", 1234)
		var total float64
		at := Time(0)
		for i, w := range works {
			work := float64(w%5000) + 1
			total += work
			if i < len(gaps) {
				at += Time(gaps[i]) * Millisecond
			}
			w := work
			sim.At(at, func() { r.Submit(w, func() {}) })
		}
		sim.RunAll()
		return math.Abs(r.Served()-total) < 1e-3*total+1 &&
			r.Completed() == int64(len(works)) && r.Load() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion times are non-decreasing in submitted work when jobs
// start together.
func TestPSMoreWorkFinishesLaterProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		wa, wb := float64(a%1000)+1, float64(b%1000)+1
		sim := New()
		r := NewPSResource(sim, "r", 500)
		var ta, tb Time
		r.Submit(wa, func() { ta = sim.Now() })
		r.Submit(wb, func() { tb = sim.Now() })
		sim.RunAll()
		if wa < wb {
			return ta <= tb
		}
		if wb < wa {
			return tb <= ta
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	sim := New()
	if sim.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	sim.At(Millisecond, func() {})
	if !sim.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if sim.Now() != Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	sim := New()
	end := sim.Run(5 * Second)
	if end != 5*Second || sim.Now() != 5*Second {
		t.Fatalf("idle run ended at %v", end)
	}
}

func TestCancelDuringDispatchOfSameInstant(t *testing.T) {
	sim := New()
	fired := false
	var victim *Event
	sim.At(Millisecond, func() { sim.Cancel(victim) })
	victim = sim.At(Millisecond, func() { fired = true })
	sim.RunAll()
	if fired {
		t.Fatal("event cancelled by an earlier same-instant event still fired")
	}
}

func TestPSResubmitFromCompletionCallback(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	count := 0
	var done func()
	done = func() {
		count++
		if count < 3 {
			r.Submit(100, done)
		}
	}
	r.Submit(100, done)
	sim.RunAll()
	if count != 3 {
		t.Fatalf("chained submissions = %d", count)
	}
	if got := sim.Now().ToSeconds(); math.Abs(got-0.3) > 1e-3 {
		t.Fatalf("chain finished at %v", got)
	}
}

// TestPSRearmKeepsCancelAtTieOrder: a re-armed completion event takes a
// fresh sequence number, so at a shared instant it fires after a user
// event scheduled before the re-arm, exactly as cancelling and
// rescheduling it did; and the queue holds one event per busy resource.
func TestPSRearmKeepsCancelAtTieOrder(t *testing.T) {
	for name, mk := range psEngines {
		sim := New()
		a, b := mk(sim, 1000), mk(sim, 1000)
		var order []string
		a.submit(1000, func() { order = append(order, "a") }) // due at 1 s
		sim.At(Second, func() { order = append(order, "user") })
		b.submit(500, func() { order = append(order, "b1") }) // due at 0.5 s...
		b.submit(500, func() { order = append(order, "b2") }) // ...both now at 1 s
		a.setBackground(0)                                    // same instant, fresh sequence
		if p := sim.Pending(); p != 3 {
			t.Fatalf("%s: pending = %d with two busy resources and one user event", name, p)
		}
		sim.Run(Second - 1)
		if p := sim.Pending(); p != 3 {
			t.Fatalf("%s: pending = %d before the shared instant", name, p)
		}
		sim.RunAll()
		if want := []string{"user", "b1", "b2", "a"}; !slices.Equal(order, want) {
			t.Fatalf("%s: order %v, want %v", name, order, want)
		}
		if p := sim.Pending(); p != 0 {
			t.Fatalf("%s: pending = %d once idle", name, p)
		}
	}
}

// TestPSSubmitToCompletionAllocs: with the completion callback allocated
// up front, one submit-to-completion among 80 active jobs allocates only
// the returned *Job — the completion event is re-armed in place and the
// finished-job scratch is reused.
func TestPSSubmitToCompletionAllocs(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1e6)
	for i := 0; i < 80; i++ {
		r.Submit(1e18, nil)
	}
	n := 0
	done := func() { n++ }
	allocs := testing.AllocsPerRun(200, func() {
		want := n + 1
		r.Submit(1, done)
		for n < want && sim.Step() {
		}
	})
	if allocs > 1 {
		t.Fatalf("submit-to-completion allocates %v objects, want at most 1", allocs)
	}
}

// --- Differential test against the map-backed engine -----------------------

// mapJob and mapPSResource are a frozen copy of the processor-sharing
// engine that kept its active jobs in a map and scheduled a fresh
// completion event per operation. They exist only as the reference the
// slice-backed PSResource must reproduce exactly.
type mapJob struct {
	remaining float64
	done      func()
	seq       int64
	res       *mapPSResource
}

type mapPSResource struct {
	sim        *Simulator
	rate       float64
	jobs       map[*mapJob]struct{}
	last       Time
	next       *Event
	busy       Time
	served     float64
	completed  int64
	subSeq     int64
	background float64
}

func newMapPSResource(sim *Simulator, rate float64) *mapPSResource {
	return &mapPSResource{sim: sim, rate: rate, jobs: make(map[*mapJob]struct{}), last: sim.Now()}
}

func (r *mapPSResource) SetRate(rate float64) {
	r.advance()
	r.rate = rate
	r.reschedule()
}

func (r *mapPSResource) SetBackground(n float64) {
	r.advance()
	r.background = n
	r.reschedule()
}

func (r *mapPSResource) perJobRate() float64 {
	n := float64(len(r.jobs)) + r.background
	if n <= 0 {
		return r.rate
	}
	return r.rate / n
}

func (r *mapPSResource) advance() {
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

func (r *mapPSResource) Submit(work float64, done func()) *mapJob {
	r.advance()
	j := &mapJob{remaining: math.Max(work, 0), done: done, seq: r.subSeq, res: r}
	r.subSeq++
	r.jobs[j] = struct{}{}
	r.reschedule()
	return j
}

func (r *mapPSResource) CancelJob(j *mapJob) {
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

func (r *mapPSResource) reschedule() {
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

func (r *mapPSResource) finishDue() {
	r.next = nil
	r.advance()
	var finished []*mapJob
	for j := range r.jobs {
		if j.remaining <= 1e-9 {
			finished = append(finished, j)
		}
	}
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

// psDriver drives either engine; submit returns the job's cancel.
type psDriver struct {
	submit        func(work float64, done func()) (cancel func())
	setRate       func(float64)
	setBackground func(float64)
	load          func() int
	busy          func() Time
	served        func() float64
	completed     func() int64
}

var psEngines = map[string]func(sim *Simulator, rate float64) psDriver{
	"slice": func(sim *Simulator, rate float64) psDriver {
		r := NewPSResource(sim, "slice", rate)
		return psDriver{
			submit: func(w float64, done func()) func() {
				j := r.Submit(w, done)
				return func() { r.CancelJob(j) }
			},
			setRate: r.SetRate, setBackground: r.SetBackground, load: r.Load,
			busy: r.BusyTime, served: r.Served, completed: r.Completed,
		}
	},
	"map": func(sim *Simulator, rate float64) psDriver {
		r := newMapPSResource(sim, rate)
		return psDriver{
			submit: func(w float64, done func()) func() {
				j := r.Submit(w, done)
				return func() { r.CancelJob(j) }
			},
			setRate: r.SetRate, setBackground: r.SetBackground,
			load:      func() int { return len(r.jobs) },
			busy:      func() Time { r.advance(); return r.busy },
			served:    func() float64 { r.advance(); return r.served },
			completed: func() int64 { return r.completed },
		}
	},
}

// psOp is one scripted operation of a differential mix.
type psOp struct {
	at   Time
	kind byte    // 's'ubmit, 'r'ate, 'b'ackground, 'c'ancel
	x    float64 // work, rate or background
	n    int     // submit: identical jobs; cancel: scripted job index
}

// psMix scripts a randomized mix: single submissions (one in ten with zero
// work), batches of equal work at one instant, rate and background changes,
// and cancellations of earlier scripted jobs (finished ones included). A
// third of the operations share the previous one's instant.
func psMix(seed int64) []psOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []psOp
	at, scripted := Time(0), 0
	// Light mixes stay shallow; heavy ones queue a few hundred jobs deep.
	gap, work := Time(1000+rng.Intn(3000)), float64(20+rng.Intn(600))
	for len(ops) < 300 {
		if rng.Intn(3) > 0 {
			at += Time(rng.Int63n(int64(gap)))
		}
		switch k := rng.Intn(100); {
		case k < 70:
			w := rng.ExpFloat64() * work
			if rng.Intn(10) == 0 {
				w = 0
			}
			ops = append(ops, psOp{at: at, kind: 's', x: w, n: 1})
			scripted++
		case k < 76:
			n := 2 + rng.Intn(30)
			ops = append(ops, psOp{at: at, kind: 's', x: float64(1 + rng.Intn(2*int(work))), n: n})
			scripted += n
		case k < 82:
			ops = append(ops, psOp{at: at, kind: 'r', x: 1e6 * (0.25 + rng.Float64())})
		case k < 88:
			ops = append(ops, psOp{at: at, kind: 'b', x: float64(rng.Intn(4)) * rng.Float64()})
		default:
			if scripted > 0 {
				ops = append(ops, psOp{at: at, kind: 'c', n: rng.Intn(scripted)})
			}
		}
	}
	return ops
}

type psCompletion struct {
	id   int
	at   Time
	load int
}

type psOutcome struct {
	comps     []psCompletion
	busy      Time
	served    float64
	completed int64
	peak      int
}

// runPSMix plays ops on a fresh simulator with one resource of the given
// engine. Every fifth job's completion callback submits a follow-up job
// (up to three generations deep, some with zero work).
func runPSMix(ops []psOp, mk func(*Simulator, float64) psDriver) psOutcome {
	sim := New()
	d := mk(sim, 1e6)
	var out psOutcome
	var scripted []func()
	nextID := 0
	var submit func(w float64, gen int) func()
	submit = func(w float64, gen int) func() {
		id := nextID
		nextID++
		cancel := d.submit(w, func() {
			out.comps = append(out.comps, psCompletion{id, sim.Now(), d.load()})
			if id%5 == 0 && gen < 3 {
				submit(float64(id%7)*150, gen+1)
			}
		})
		out.peak = max(out.peak, d.load())
		return cancel
	}
	// Each operation schedules the next before it acts, so the script's
	// events take sequence numbers between the completion events' and a
	// completion re-armed onto the next operation's instant must still
	// fire after it.
	var play func(i int)
	play = func(i int) {
		if i+1 < len(ops) {
			sim.At(ops[i+1].at, func() { play(i + 1) })
		}
		switch op := ops[i]; op.kind {
		case 's':
			for k := 0; k < op.n; k++ {
				scripted = append(scripted, submit(op.x, 0))
			}
		case 'r':
			d.setRate(op.x)
		case 'b':
			d.setBackground(op.x)
		case 'c':
			scripted[op.n]()
		}
	}
	sim.At(ops[0].at, func() { play(0) })
	sim.RunAll()
	out.busy, out.served, out.completed = d.busy(), d.served(), d.completed()
	return out
}

// TestPSMatchesMapEngine: on randomized mixes the slice-backed engine
// reproduces the map-backed one exactly — completion order, completion
// instants, the load each completion sees, busy time and completion count.
// Served work may differ in the last bits only: the map engine summed it
// in random iteration order.
func TestPSMatchesMapEngine(t *testing.T) {
	peak := 0
	for seed := int64(1); seed <= 120; seed++ {
		ops := psMix(seed)
		got, want := runPSMix(ops, psEngines["slice"]), runPSMix(ops, psEngines["map"])
		peak = max(peak, got.peak)
		if len(got.comps) != len(want.comps) {
			t.Fatalf("seed %d: %d completions, map engine %d", seed, len(got.comps), len(want.comps))
		}
		for i := range got.comps {
			if got.comps[i] != want.comps[i] {
				t.Fatalf("seed %d: completion %d is %+v, map engine %+v", seed, i, got.comps[i], want.comps[i])
			}
		}
		if got.busy != want.busy || got.completed != want.completed || got.peak != want.peak {
			t.Fatalf("seed %d: busy %v completed %d peak %d, map engine %v %d %d",
				seed, got.busy, got.completed, got.peak, want.busy, want.completed, want.peak)
		}
		if math.Abs(got.served-want.served) > 1e-9*math.Abs(want.served) {
			t.Fatalf("seed %d: served %v, map engine %v", seed, got.served, want.served)
		}
	}
	if peak < 300 {
		t.Fatalf("deepest mix peaked at %d active jobs, want at least the 300 the ladders reach", peak)
	}
}
