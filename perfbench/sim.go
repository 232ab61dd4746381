package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sweb/internal/des"
	"sweb/internal/metrics"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// rung is one offered rate of one Table-1 cell, with its arrival
// schedule generated from the seed.
type rung struct {
	cell     simCell
	rps      int
	seed     int64
	arrivals []workload.Arrival
}

// rungResult is what a rung must reproduce exactly on every run.
type rungResult struct {
	Served       int64   `json:"served"`
	Dropped      int64   `json:"dropped"`
	MeanResponse float64 `json:"mean_response_s"`
}

// buildLadder generates every rung's schedule from seed: the ladder's
// rates are fixed, so the work does not depend on any result.
func buildLadder(w workloadCfg, seed int64) []rung {
	var out []rung
	for ci, cell := range w.Cells {
		st := storage.NewStore(cell.Nodes)
		paths := storage.UniformSet(st, w.FileCount, w.FileBytes)
		for ri, rps := range cell.RungsRPS {
			rs := seed*1_000 + int64(ci*100+ri)
			rng := rand.New(rand.NewSource(rs ^ 0x5eed))
			burst := workload.Burst{RPS: rps, DurationSeconds: cell.DurationS, Jitter: true}
			arr, err := burst.Generate(workload.UniformPicker(paths), nil, rng)
			if err != nil {
				panic(err) // the ladder is validated configuration
			}
			out = append(out, rung{cell: cell, rps: rps, seed: rs, arrivals: arr})
		}
	}
	return out
}

// simulate builds a fresh cluster for r, runs its schedule to completion,
// and returns the result with the cluster for inspection.
func simulate(w workloadCfg, r rung, sample func(*simsrv.Cluster)) (rungResult, *simsrv.Cluster, error) {
	st := storage.NewStore(r.cell.Nodes)
	storage.UniformSet(st, w.FileCount, w.FileBytes)
	var cfg simsrv.Config
	switch r.cell.Machine {
	case "Meiko":
		cfg = simsrv.MeikoConfig(r.cell.Nodes, st)
	case "NOW":
		cfg = simsrv.NOWConfig(r.cell.Nodes, st)
	default:
		return rungResult{}, nil, fmt.Errorf("unknown machine %q", r.cell.Machine)
	}
	cfg.Policy = simsrv.PolicySWEB
	// Table 1's failure criteria: burst clients are patient, sustained
	// clients give up after 90 s.
	if r.cell.DurationS >= 120 {
		cfg.ClientTimeout = 90 * des.Second
	} else {
		cfg.ClientTimeout = 3600 * des.Second
	}
	cfg.Seed = r.seed
	cl, err := simsrv.New(cfg)
	if err != nil {
		return rungResult{}, nil, err
	}
	if sample != nil {
		sample(cl)
	}
	res := cl.RunSchedule(r.arrivals)
	return rungResult{Served: res.Completed, Dropped: res.Dropped(), MeanResponse: res.MeanResponse()}, cl, nil
}

// ladderPass runs every rung once, returning the results and each rung's
// host time. Host time is this process's CPU time, garbage collection
// included: the simulator is CPU-bound and single-threaded, and CPU time,
// unlike wall time, does not grow with what other tenants of a virtual
// machine's host take.
func ladderPass(w workloadCfg, ladder []rung) ([]rungResult, []time.Duration, int64, error) {
	out := make([]rungResult, len(ladder))
	host := make([]time.Duration, len(ladder))
	var events int64
	for i, r := range ladder {
		t0 := cpuTime()
		res, cl, err := simulate(w, r, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		host[i] = cpuTime() - t0
		out[i] = res
		events += cl.Sim.EventsFired()
	}
	return out, host, events, nil
}

func referencePath(root string) string {
	return filepath.Join(root, "perfbench", "sim_reference.json")
}

// loadReference returns the recorded rung results for seed, if any.
func loadReference(root string, seed int64) ([]rungResult, bool, error) {
	b, err := os.ReadFile(referencePath(root))
	if err != nil {
		return nil, false, err
	}
	var m map[string][]rungResult
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, false, err
	}
	ref, ok := m[strconv.FormatInt(seed, 10)]
	return ref, ok, nil
}

// recordReference rewrites the reference file for seeds lo-hi.
func recordReference(o options, w workloadCfg, span string) int {
	loS, hiS, _ := strings.Cut(span, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return fail(fmt.Errorf("-record-reference wants LO-HI, got %q", span))
	}
	m := map[string][]rungResult{}
	for s := lo; s <= hi; s++ {
		res, _, _, err := ladderPass(w, buildLadder(w, s))
		if err != nil {
			return fail(err)
		}
		m[strconv.FormatInt(s, 10)] = res
		logf("reference seed %d recorded", s)
	}
	// One seed per line keeps a re-recording's diff readable.
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for s := lo; s <= hi; s++ {
		b, err := json.Marshal(m[strconv.FormatInt(s, 10)])
		if err != nil {
			return fail(err)
		}
		sep := ","
		if s == hi {
			sep = ""
		}
		fmt.Fprintf(&buf, "%q: %s%s\n", strconv.FormatInt(s, 10), b, sep)
	}
	buf.WriteString("}\n")
	if err := os.WriteFile(referencePath(o.root), buf.Bytes(), 0o644); err != nil {
		return fail(err)
	}
	return 0
}

// diffResults describes the first rung whose results differ, "" if none.
func diffResults(ladder []rung, got, want []rungResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rungs, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			r := ladder[i]
			return fmt.Sprintf("%s %ds at %d rps: got %+v, want %+v",
				r.cell.Machine, r.cell.DurationS, r.rps, got[i], want[i])
		}
	}
	return ""
}

// selfPeakRSSMB is this process's peak resident set.
func selfPeakRSSMB() float64 {
	ps, err := readProc(os.Getpid())
	if err != nil {
		return nan
	}
	return float64(ps.peakRSSKiB) / 1024
}

// runSim runs sim-table1. Set-up generates the ladder's schedules and
// runs one reference pass, setups times; every pass after that must
// reproduce the first exactly, as must the recorded reference when the
// seed has one.
func runSim(o options, w workloadCfg) (*results, error) {
	res := newResults()
	var ladder []rung
	var ref []rungResult
	var setupS []float64
	var setupWall time.Duration
	for k := 0; k < setups; k++ {
		t0, c0 := time.Now(), cpuTime()
		ladder = buildLadder(w, o.seed)
		got, _, _, err := ladderPass(w, ladder)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (cpuTime() - c0).Seconds())
		setupWall += time.Since(t0)
		if ref == nil {
			ref = got
		} else if d := diffResults(ladder, got, ref); d != "" {
			res.correct = false
			logf("set-up pass %d differs from the first: %s", k, d)
		}
	}
	recorded, have, err := loadReference(o.root, o.seed)
	if err != nil {
		return nil, err
	}
	if have {
		if d := diffResults(ladder, ref, recorded); d != "" {
			res.correct = false
			logf("seed %d differs from the recorded reference: %s", o.seed, d)
		}
	} else {
		logf("seed %d has no recorded reference; checking passes against each other only", o.seed)
	}
	if o.trace {
		return simLayers(w, ladder, res)
	}

	// Whole passes only, as many as the set-up passes say fit the window,
	// so every run measures the same mix of rungs. Rates are medians over
	// passes and a rung's time is its median over passes, so a pass the
	// host slowed down moves no figure.
	var requests int64
	var rateRPS, rateEvents, passS []float64
	rungMS := make([][]float64, len(ladder))
	passes := max(1, int(o.seconds/(setupWall.Seconds()/setups)+0.5))
	for p := 0; p < passes; p++ {
		got, host, ev, err := ladderPass(w, ladder)
		if err != nil {
			return nil, err
		}
		res.attempted += int64(len(got))
		var pass time.Duration
		var passReqs int64
		for i := range got {
			if got[i] != ref[i] {
				res.failed++
				res.correct = false
			}
			rungMS[i] = append(rungMS[i], ms(host[i]))
			pass += host[i]
			passReqs += int64(len(ladder[i].arrivals))
		}
		requests += passReqs
		passS = append(passS, pass.Seconds())
		rateRPS = append(rateRPS, float64(passReqs)/pass.Seconds())
		rateEvents = append(rateEvents, float64(ev)/pass.Seconds())
	}
	if res.failed > 0 {
		logf("%d rung runs differed from the set-up reference", res.failed)
	}
	var rungs []float64
	for _, xs := range rungMS {
		rungs = append(rungs, median(xs))
	}
	rss := selfPeakRSSMB()
	res.setN("rps", median(rateRPS), "1/s", passes)
	res.setN("lat_p50_ms", quantile(append([]float64(nil), rungs...), 0.5), "ms", len(rungs))
	res.setN("lat_p99_ms", quantile(rungs, 0.99), "ms", len(rungs))
	res.set("server_cpu_us_per_req", 1e6*sum(passS)/float64(requests), "us")
	res.set("server_rss_mb", rss, "MB")
	res.setN("setup_s", median(setupS), "s", len(setupS))
	res.setN("sim_host_s", median(passS), "s", len(passS))
	res.setN("sim_events_per_s", median(rateEvents), "1/s", passes)
	res.set("sim_rss_mb", rss, "MB")
	return res, nil
}

// jobSampler records per-node job counts (admitted connections) every
// five simulated seconds, to size the processor-sharing replay. Reading
// a gauge means rendering the node's registry, so sampling finer makes
// the traced run slow on the burst cells' hour-long patience horizon.
type jobSampler struct {
	busy []float64
	peak float64
}

func (js *jobSampler) attach(cl *simsrv.Cluster, nodes int) {
	cl.Every(5*des.Second, func() {
		for x := 0; x < nodes; x++ {
			var buf bytes.Buffer
			if err := cl.Registry(x).WriteText(&buf); err != nil {
				continue
			}
			smp, err := metrics.ParseText(&buf)
			if err != nil {
				continue
			}
			v, _ := metrics.Value(smp, "sweb_inflight", nil)
			if v > 0 {
				js.busy = append(js.busy, v)
			}
			if v > js.peak {
				js.peak = v
			}
		}
	})
}

// simLayers is sim-table1's traced run: exact event and request counts,
// host cost per event, the processor-sharing replay at the job counts the
// ladder reached, the simulator's own metric registries, and the shared
// replays on the ladder's paths.
func simLayers(w workloadCfg, ladder []rung, res *results) (*results, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	_, rungHost, events, err := ladderPass(w, ladder)
	if err != nil {
		return nil, err
	}
	var host time.Duration
	for _, d := range rungHost {
		host += d
	}
	runtime.ReadMemStats(&ms1)
	var requests int64
	for _, r := range ladder {
		requests += int64(len(r.arrivals))
	}
	res.attempted = int64(len(ladder))
	res.set("des.events", float64(events), "count")
	res.set("simsrv.requests", float64(requests), "count")
	res.set("des.ns_per_event", float64(host.Nanoseconds())/float64(events), "ns")
	res.set("des.alloc_bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(events), "B")
	res.set("httpd.gc_pause_us_per_req", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e3/float64(requests), "us")

	// One sampled pass: job counts per node, and the registries the
	// simulator fills with the live node's metric families.
	js := &jobSampler{}
	var before, after []nodeSnap
	var paths []string
	for _, r := range ladder {
		_, cl, err := simulate(w, r, func(cl *simsrv.Cluster) { js.attach(cl, r.cell.Nodes) })
		if err != nil {
			return nil, err
		}
		for x := 0; x < r.cell.Nodes; x++ {
			var buf bytes.Buffer
			if err := cl.Registry(x).WriteText(&buf); err != nil {
				return nil, err
			}
			smp, err := metrics.ParseText(&buf)
			if err != nil {
				return nil, err
			}
			before = append(before, nodeSnap{})
			after = append(after, nodeSnap{samples: smp})
		}
		for _, a := range r.arrivals {
			paths = append(paths, a.Path)
		}
	}
	meanJobs := mean(js.busy)
	res.set("des.jobs_mean", meanJobs, "count")
	res.set("des.jobs_peak", js.peak, "count")
	res.set("des.ps_op_ns", psReplay(int(meanJobs+0.5)), "ns")
	res.set("des.ps_op_ns_peak", psReplay(int(js.peak)), "ns")
	inSituLayers(res, before, after, float64(requests))
	replayLayers(res, replayInputsFromPaths(paths, ladder[0].cell.Nodes, w.FileBytes))
	// The simulator has no wire protocol, models its page cache instead of
	// using internal/cache, and records no trace in this run; it has no
	// server processes or load generator either.
	notExercised(res, map[string]string{
		"calls.httpmsg_per_req": "count", "calls.cache_per_req": "count", "calls.trace_per_req": "count",
		"httpd.write_syscalls_per_req": "count", "httpd.read_syscalls_per_req": "count",
		"httpd.ctx_switches_per_req": "count", "loadgen.late_p99_ms": "ms", "loadgen.cpu_us_per_req": "us",
		"trace.overhead_pct": "%",
	})
	rollUp(res, float64(host.Nanoseconds())/float64(requests))
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
