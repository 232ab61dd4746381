// Command perfbench is the repository benchmark. It runs one named
// workload from perfbench/workloads.json, checks every output for
// correctness, and prints each measured quantity by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON carries the end_to_end metrics listed in
// BENCHMARK.json; with -trace 1 it carries the per_layer metrics.
//
// The live workloads start real swebd processes and drive them from this
// process; sim-table1 drives the discrete-event simulator in-process.
// Run it through perfbench/run.sh, which builds both binaries from the
// checkout first:
//
//	bash perfbench/run.sh --workload live-hot-small --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the slice of BENCHMARK.json the program reads: the metric
// names it must report in each mode.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// workloadCfg holds one workload's generator parameters
// (perfbench/workloads.json). Live and sim workloads use disjoint fields.
type workloadCfg struct {
	Kind           string  `json:"kind"`
	Nodes          int     `json:"nodes"`
	DocSet         string  `json:"doc_set"`
	DocCount       int     `json:"doc_count"`
	DocBytes       int64   `json:"doc_bytes"`
	DocMinBytes    int64   `json:"doc_min_bytes"`
	DocMaxBytes    int64   `json:"doc_max_bytes"`
	Popularity     string  `json:"popularity"`
	ZipfS          float64 `json:"zipf_s"`
	Loop           string  `json:"loop"`
	RateRPS        float64 `json:"rate_rps"`
	CacheBytes     int64   `json:"cache_bytes"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	LateLimitMS    float64 `json:"late_limit_ms"`
	WarmupS        float64 `json:"warmup_s"`

	FileBytes int64     `json:"file_bytes"`
	FileCount int       `json:"file_count"`
	Cells     []simCell `json:"cells"`
}

// simCell is one Table-1 cell: a machine, its SWEB node count, a test
// duration, and the fixed ladder of offered rates it runs.
type simCell struct {
	Machine   string `json:"machine"`
	Nodes     int    `json:"nodes"`
	DurationS int    `json:"duration_s"`
	RungsRPS  []int  `json:"rungs_rps"`
}

// measure is one reported quantity; n is its sample count (0: not a
// sampled statistic).
type measure struct {
	v    float64
	unit string
	n    int
}

// results is what one workload run produced.
type results struct {
	correct           bool
	attempted, failed int64
	vals              map[string]measure
}

func newResults() *results { return &results{correct: true, vals: map[string]measure{}} }

func (r *results) set(name string, v float64, unit string) {
	r.vals[name] = measure{v: v, unit: unit}
}

func (r *results) setN(name string, v float64, unit string, n int) {
	r.vals[name] = measure{v: v, unit: unit, n: n}
}

// setups is how many times each run sets its workload up; the set-up
// figures are medians over them.
const setups = 3

// options are the command-line knobs shared by every workload.
type options struct {
	root     string
	swebd    string
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceMode int
	var seconds int
	var recordRef string
	flag.StringVar(&o.workload, "workload", "", `workload name from perfbench/workloads.json, or "all"`)
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceMode, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root holding BENCHMARK.json and perfbench/")
	flag.StringVar(&o.swebd, "swebd", "", "swebd binary for the live workloads")
	flag.StringVar(&recordRef, "record-reference", "",
		"rewrite perfbench/sim_reference.json for seeds LO-HI and exit")
	flag.Parse()
	o.seconds = float64(seconds)
	o.trace = traceMode == 1

	cfgs, err := loadWorkloads(filepath.Join(o.root, "perfbench", "workloads.json"))
	if err != nil {
		return fail(err)
	}
	if recordRef != "" {
		return recordReference(o, cfgs["sim-table1"], recordRef)
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if o.seconds < 1 || (traceMode != 0 && traceMode != 1) {
		return fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	if o.workload == "all" {
		names := make([]string, 0, len(cfgs))
		for k := range cfgs {
			names = append(names, k)
		}
		sort.Strings(names)
		return runEach(o, names, traceMode)
	}
	w, ok := cfgs[o.workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	return runOne(o, w, spec)
}

// runEach runs every named workload in a process of its own, one after
// another, so no workload's peak RSS includes an earlier one's.
func runEach(o options, names []string, traceMode int) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	code := 0
	for _, name := range names {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "-root", o.root, "-swebd", o.swebd, "-workload", name,
			"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(int(o.seconds)),
			"-trace", strconv.Itoa(traceMode))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			logf("workload %s: %v", name, err)
			code = 1
		}
	}
	return code
}

// runOne runs one workload and prints its results.
func runOne(o options, w workloadCfg, spec benchSpec) int {
	logf("workload %s seed %d seconds %g trace %v GOMAXPROCS %d nproc %d",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var res *results
	var err error
	switch w.Kind {
	case "live":
		res, err = runLive(o, w)
	case "sim":
		res, err = runSim(o, w)
	default:
		err = fmt.Errorf("workload %q has unknown kind %q", o.workload, w.Kind)
	}
	if err != nil {
		return fail(err)
	}
	return emit(res, spec, o.trace)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func loadWorkloads(path string) (map[string]workloadCfg, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]workloadCfg
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// emit prints every measured quantity as a table, then the result line
// with exactly the metrics BENCHMARK.json lists for the mode.
func emit(res *results, spec benchSpec, trace bool) int {
	names := make([]string, 0, len(res.vals))
	for k := range res.vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.vals[k]
		line := fmt.Sprintf("%-36s %14.6g %s", k, m.v, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Println(line)
	}

	type listed struct{ Name, Unit string }
	var want []listed
	if trace {
		for _, m := range spec.PerLayer {
			want = append(want, listed{m.Name, m.Unit})
		}
	} else {
		for _, m := range spec.EndToEnd {
			want = append(want, listed{m.Name, m.Unit})
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	var missing []string
	for _, w := range want {
		m, ok := res.vals[w.Name]
		if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			missing = append(missing, w.Name)
			continue
		}
		if m.unit != w.Unit {
			return fail(fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit))
		}
		out[w.Name] = jsonMetric{Value: m.v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return fail(fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", ")))
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	return 0
}
