package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sweb/internal/metrics"
)

// sample is one client request as measured.
type sample struct {
	lat, ttfb time.Duration // from start (closed loop) or due time (open)
	end       time.Duration // completion, since the window's start
	late      time.Duration // generator lateness (open loop)
	ok, wrong bool
}

// window is one timed stretch of load.
type window struct {
	dur     time.Duration
	samples []sample
	cpu     time.Duration // the load generator's own user+system CPU
	spans   []hopSpan
	reasons map[string]int
	steal   float64 // share of the machine's CPU time the host stole
}

// slots is the number of concurrent client slots, hence the requests in
// flight at most: one per CPU, like the load generator's GOMAXPROCS.
func slots() int { return runtime.NumCPU() }

// liveRun is one cluster set up and ready for timed windows.
type liveRun struct {
	o       options
	w       workloadCfg
	c       *corpus
	sched   []request
	next    int          // schedule cursor: windows consume the schedule in order
	traceID atomic.Int64 // last trace id issued; unique over the run
	cl      *cluster
	clients []*client
	// Set-up phases in seconds: writing the docroots, process start until
	// every node answers (wall and node CPU time, once per start), gossip
	// convergence, warm-up. Only the start's CPU time is setup_s, the
	// program's own start-up work; its wall time swings with host steal
	// several times as much. The rest is printed beside it: the docroot
	// write is the benchmark's input preparation, and gossip and warm-up
	// are mostly fixed timers (the broadcast period, warmup_s).
	docrootS, gossipS, warmS float64
	startS, startCPU         []float64
}

// extraStarts is how many times each set-up starts the nodes and stops
// them again before the start it keeps. One start takes about ten
// milliseconds, too short for the three set-ups of a run alone to give a
// steady median.
const extraStarts = 9

// setupLive sets up one cluster — docroots, processes, gossip
// convergence, warm-up — and returns it with each phase's time. The
// schedule is consumed from cursor on.
func setupLive(o options, w workloadCfg, c *corpus, sched []request, cursor int, dir string, traced bool) (*liveRun, error) {
	lr := &liveRun{o: o, w: w, c: c, sched: sched, next: cursor}
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	manifest, roots, err := c.writeDocroots(dir)
	if err != nil {
		return nil, err
	}
	lr.docrootS = time.Since(t0).Seconds()
	var cl *cluster
	var t1 time.Time
	for k := 0; k <= extraStarts; k++ {
		tStart := time.Now()
		cl, err = startCluster(o, w, dir, manifest, roots, traced)
		if err != nil {
			return nil, err
		}
		t1 = time.Now()
		lr.startS = append(lr.startS, t1.Sub(tStart).Seconds())
		lr.startCPU = append(lr.startCPU, cl.startCPU.Seconds())
		if k < extraStarts {
			cl.stop()
		}
	}
	lr.cl = cl
	for i := 0; i < slots(); i++ {
		lr.clients = append(lr.clients, newClient(cl.addrs, c.docs))
	}
	if err := cl.waitGossip(15 * time.Second); err != nil {
		lr.close()
		return nil, err
	}
	t2 := time.Now()
	if err := lr.warmup(); err != nil {
		lr.close()
		return nil, err
	}
	lr.gossipS, lr.warmS = t2.Sub(t1).Seconds(), time.Since(t2).Seconds()
	return lr, nil
}

func (lr *liveRun) close() {
	for _, c := range lr.clients {
		c.closeAll()
	}
	lr.cl.stop()
}

// warmup fills the caches and the connections before any timing. On the
// closed loop every node first fetches every document pinned (swebr=1),
// so each node's cache holds the whole hot set and later requests are
// local hits; then both loops run their own traffic for warmup_s.
func (lr *liveRun) warmup() error {
	if lr.w.Loop == "closed" {
		for node := range lr.cl.addrs {
			for d := range lr.c.docs {
				if out := lr.clients[0].fetch(d, node, "", true); !out.ok {
					return fmt.Errorf("warm-up fetch of %s at node %d: %s", lr.c.docs[d].path, node, out.reason)
				}
			}
		}
	}
	win, err := lr.drive(time.Duration(lr.w.WarmupS*float64(time.Second)), false)
	if err != nil {
		return err
	}
	if cs := summarize([]*window{win}, lr.w); cs.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", cs.failed, cs.attempted, win.reasons)
	}
	return nil
}

// hostSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat; zeros when unreadable.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is this process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the workload's loop for dur from the schedule cursor. With
// tracing each request carries a fresh trace id and the clients keep
// their hop spans.
func (lr *liveRun) drive(dur time.Duration, tracing bool) (*window, error) {
	var next atomic.Int64
	base := lr.next
	open := lr.w.Loop == "open"
	var baseDue time.Duration
	if open {
		baseDue = lr.sched[base].due
	}
	per := make([][]sample, len(lr.clients))
	failed := make([]map[string]int, len(lr.clients))
	var overrun atomic.Bool
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	steal0, all0 := hostSteal()
	start := time.Now()
	deadline := start.Add(dur)
	for k, cl := range lr.clients {
		cl.tracing = tracing
		cl.spans = cl.spans[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]sample, 0, 1<<14)
			reasons := map[string]int{}
			for {
				i := base + int(next.Add(1)-1)
				var r request
				var due, free time.Time
				if open {
					if i >= len(lr.sched) {
						overrun.Store(true)
						break
					}
					r = lr.sched[i]
					due = start.Add(r.due - baseDue)
					if !due.Before(deadline) {
						break
					}
					free = time.Now()
					if d := due.Sub(free); d > 0 {
						time.Sleep(d)
					}
				} else {
					if time.Now().After(deadline) {
						break
					}
					r = lr.sched[i%len(lr.sched)]
				}
				t0 := time.Now()
				tid := ""
				if tracing {
					tid = fmt.Sprintf("b%x", lr.o.seed<<40|lr.traceID.Add(1))
				}
				out := cl.fetch(r.doc, r.node, tid, false)
				s := sample{ok: out.ok, wrong: out.wrong}
				from := t0
				if open {
					from = due
					late := free
					if due.After(late) {
						late = due
					}
					s.late = t0.Sub(late)
				}
				if out.ok {
					s.lat, s.ttfb, s.end = out.end.Sub(from), out.first.Sub(from), out.end.Sub(start)
				} else {
					now := time.Now()
					s.lat, s.end = now.Sub(from), now.Sub(start)
					reasons[out.reason]++
				}
				buf = append(buf, s)
			}
			per[k], failed[k] = buf, reasons
		}()
	}
	wg.Wait()
	steal1, all1 := hostSteal()
	win := &window{dur: dur, cpu: cpuTime() - cpu0, reasons: map[string]int{}, steal: frac(steal1-steal0, all1-all0)}
	lr.next = base + int(next.Load())
	if !open {
		lr.next %= len(lr.sched)
	}
	for k, cl := range lr.clients {
		win.samples = append(win.samples, per[k]...)
		win.spans = append(win.spans, cl.spans...)
		for r, n := range failed[k] {
			win.reasons[r] += n
		}
	}
	if overrun.Load() {
		return nil, fmt.Errorf("open-loop schedule exhausted")
	}
	return win, nil
}

// timed runs parts back-to-back windows of dur/parts between two
// accounting snapshots. On the closed loop only requests that completed
// inside their window count.
func (lr *liveRun) timed(dur time.Duration, parts int, tracing bool) ([]*window, []nodeSnap, []nodeSnap, error) {
	before, err := lr.cl.snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	part := dur / time.Duration(parts)
	var wins []*window
	for p := 0; p < parts; p++ {
		win, err := lr.drive(part, tracing)
		if err != nil {
			return nil, nil, nil, err
		}
		if lr.w.Loop == "closed" {
			kept := win.samples[:0]
			for _, s := range win.samples {
				if s.end <= part {
					kept = append(kept, s)
				}
			}
			win.samples = kept
		}
		wins = append(wins, win)
	}
	after, err := lr.cl.snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	return wins, before, after, nil
}

// checkLate rejects a run in which the open-loop generator itself fell
// behind its schedule (late p99 above late_limit_ms): such a run measured
// the generator, so it is not scored.
func checkLate(cs clientStats, w workloadCfg) error {
	if w.Loop == "open" && w.LateLimitMS > 0 && cs.lateP99 > w.LateLimitMS {
		return fmt.Errorf("invalid run: load generator late p99 %.2f ms > late_limit_ms %.2f",
			cs.lateP99, w.LateLimitMS)
	}
	return nil
}

// clientStats are the end-to-end numbers of one or more windows, pooled.
type clientStats struct {
	attempted, failed, wrong int
	rps                      float64
	latP50, latP99, ttfbP50  float64 // ms
	nLat                     int
	sloMiss, errRate         float64
	lateP99                  float64 // ms, open loop only
	cpuPerReq                float64 // generator µs per completed request
}

func summarize(wins []*window, w workloadCfg) clientStats {
	var cs clientStats
	var lat, ttfb, late []float64
	var dur, cpu time.Duration
	limit := time.Duration(w.LatencyLimitMS * float64(time.Millisecond))
	miss := 0
	for _, win := range wins {
		dur += win.dur
		cpu += win.cpu
		for _, s := range win.samples {
			cs.attempted++
			if w.Loop == "open" {
				late = append(late, ms(s.late))
			}
			if !s.ok {
				cs.failed++
				miss++
				if s.wrong {
					cs.wrong++
				}
				continue
			}
			lat = append(lat, ms(s.lat))
			ttfb = append(ttfb, ms(s.ttfb))
			if s.lat > limit {
				miss++
			}
		}
	}
	cs.nLat = len(lat)
	cs.rps = float64(cs.nLat) / dur.Seconds()
	cs.latP50, cs.latP99 = quantile(lat, 0.5), quantile(lat, 0.99)
	cs.ttfbP50 = quantile(ttfb, 0.5)
	if cs.attempted > 0 {
		cs.sloMiss = float64(miss) / float64(cs.attempted)
		cs.errRate = float64(cs.failed) / float64(cs.attempted)
	}
	cs.lateP99 = quantile(late, 0.99)
	if cs.nLat > 0 {
		cs.cpuPerReq = float64(cpu.Microseconds()) / float64(cs.nLat)
	}
	return cs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linear-interpolation quantile of xs (sorted in place);
// NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// serverTotals sums the per-node /proc deltas over a window.
func serverTotals(before, after []nodeSnap) procStat {
	var tot procStat
	for i := range after {
		tot = tot.add(after[i].proc.sub(before[i].proc))
	}
	return tot
}

// counterDelta sums a counter's growth over the window across nodes.
func counterDelta(before, after []nodeSnap, name string, labels metrics.Labels) float64 {
	var d float64
	for i := range after {
		a, _ := metrics.Value(after[i].samples, name, labels)
		b, _ := metrics.Value(before[i].samples, name, labels)
		d += a - b
	}
	return d
}

// histMeanDelta is a histogram's mean over the observations made inside
// the window across nodes; 0 when there were none.
func histMeanDelta(before, after []nodeSnap, name string, labels metrics.Labels) float64 {
	sum := counterDelta(before, after, name+"_sum", labels)
	return frac(sum, counterDelta(before, after, name+"_count", labels))
}

// runLive runs a live workload. Untraced, it sets the cluster up
// setups times; after each set-up it scores a window of seconds/setups
// and tears the cluster down, so the end-to-end numbers pool several
// independent process placements. Traced, it prints the per-layer table.
func runLive(o options, w workloadCfg) (*results, error) {
	c, err := newCorpus(w, o.seed)
	if err != nil {
		return nil, err
	}
	n := 1 << 16
	if w.Loop == "open" {
		// Warm-ups and windows consume the schedule in order; size it for
		// every warm-up plus the whole window, with slack.
		n = int(w.RateRPS*(float64(setups+2)*w.WarmupS+o.seconds+10)) + 1000
	}
	sched, err := schedule(w, c, o.seed, n)
	if err != nil {
		return nil, err
	}
	logf("corpus: %d documents, %.1f MiB; cache %.1f MiB per node; %d client slots",
		len(c.docs), float64(c.totalBytes())/(1<<20), float64(w.CacheBytes)/(1<<20), slots())
	dir := filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if o.trace {
		return runLiveTraced(o, w, c, sched, dir)
	}
	part := time.Duration(o.seconds / float64(setups) * float64(time.Second))
	var wins []*window
	var tot procStat
	var docrootS, startS, startCPU, gossipS, warmS, rssMB []float64
	cursor := 0
	for k := 0; k < setups; k++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		lr, err := setupLive(o, w, c, sched, cursor, sdir, false)
		if err != nil {
			return nil, err
		}
		ws, before, after, err := lr.timed(part, 1, false)
		cursor = lr.next
		lr.close()
		// Each set-up starts from the same disk state: no earlier
		// set-up's docroots are left to write back.
		os.RemoveAll(sdir)
		if err != nil {
			return nil, err
		}
		docrootS, startS = append(docrootS, lr.docrootS), append(startS, lr.startS...)
		startCPU = append(startCPU, lr.startCPU...)
		gossipS, warmS = append(gossipS, lr.gossipS), append(warmS, lr.warmS)
		d := serverTotals(before, after)
		rssMB = append(rssMB, float64(d.peakRSSKiB)/1024)
		tot = tot.add(d)
		wins = append(wins, ws...)
		logf("set-up %d: docroots %.3f s, start %.4f s CPU %.4f s wall (medians of %d), gossip %.3f s, warm-up %.3f s; window %d requests, host steal %.1f%%",
			k, lr.docrootS, median(lr.startCPU), median(lr.startS), len(lr.startS), lr.gossipS, lr.warmS, len(ws[0].samples), 100*ws[0].steal)
	}
	res := newResults()
	cs := summarize(wins, w)
	if err := checkLate(cs, w); err != nil {
		return nil, err
	}
	res.attempted, res.failed = int64(cs.attempted), int64(cs.failed)
	res.correct = cs.wrong == 0
	res.set("rps", cs.rps, "1/s")
	res.setN("lat_p50_ms", cs.latP50, "ms", cs.nLat)
	res.setN("lat_p99_ms", cs.latP99, "ms", cs.nLat)
	res.setN("ttfb_p50_ms", cs.ttfbP50, "ms", cs.nLat)
	res.set("slo_miss_frac", cs.sloMiss, "fraction")
	res.set("error_rate", cs.errRate, "fraction")
	res.set("server_cpu_us_per_req", float64(tot.cpuTicks)*1e6/clockTicks/float64(cs.nLat), "us")
	res.setN("server_rss_mb", median(rssMB), "MB", len(rssMB))
	res.setN("setup_s", median(startCPU), "s", len(startCPU))
	res.setN("setup.start_wall_s", median(startS), "s", len(startS))
	res.setN("setup.docroot_s", median(docrootS), "s", len(docrootS))
	res.setN("setup.gossip_s", median(gossipS), "s", len(gossipS))
	res.setN("setup.warmup_s", median(warmS), "s", len(warmS))
	res.set("loadgen.cpu_us_per_req", cs.cpuPerReq, "us")
	if w.Loop == "open" {
		res.set("loadgen.late_p99_ms", cs.lateP99, "ms")
	}
	res.set("host.steal_frac", meanSteal(wins), "fraction")
	for _, win := range wins {
		for r, k := range win.reasons {
			logf("failure x%d: %s", k, r)
		}
	}
	return res, nil
}
