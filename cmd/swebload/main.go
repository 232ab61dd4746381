// Command swebload is the burst load generator used against live SWEB
// nodes: at each second it launches a constant number of requests
// (the paper's test methodology) round-robin across the given servers,
// follows SWEB redirections, and reports response-time (p50/p95/p99),
// time-to-first-byte, and failure statistics.
//
// Usage:
//
//	swebload -servers 127.0.0.1:8080,127.0.0.1:8081 \
//	         -paths /docs/u000000.dat,/docs/u000001.dat -rps 16 -seconds 30
//
// With -slo "avail=99.9,p99=250ms" the run doubles as a release gate: the
// client-observed outcomes are scored against the objectives, the budget
// report is printed, and a breach exits nonzero (CI-friendly).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/slo"
	"sweb/internal/stats"
)

func main() {
	servers := flag.String("servers", "", "comma list of host:port servers (the DNS rotation)")
	pathsFlag := flag.String("paths", "/", "comma list of request paths, drawn uniformly")
	rps := flag.Int("rps", 8, "requests launched per second")
	seconds := flag.Int("seconds", 30, "test duration")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request client timeout")
	seed := flag.Int64("seed", 1, "random seed")
	keepAlive := flag.Bool("keepalive", true, "reuse connections across requests (HTTP/1.1 persistent connections)")
	sloSpec := flag.String("slo", "", `gate the run on client-observed objectives, e.g. "avail=99.9,p99=250ms"; breach exits nonzero`)
	flag.Parse()

	var objs []slo.Objective
	if *sloSpec != "" {
		var err error
		if objs, err = slo.ParseObjectives(*sloSpec); err != nil {
			fmt.Fprintln(os.Stderr, "swebload:", err)
			os.Exit(2)
		}
	}

	hosts := splitNonEmpty(*servers)
	paths := splitNonEmpty(*pathsFlag)
	if len(hosts) == 0 {
		fmt.Fprintln(os.Stderr, "swebload: -servers is required")
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(*seed))

	type outcome struct {
		ok         bool
		redirected bool
		elapsed    time.Duration
		ttfb       time.Duration // first response byte of the final hop, -1 none
	}
	total := *rps * *seconds
	outcomes := make([]outcome, total)

	// Park idle connections per server address so that a generator
	// goroutine's next request — including the follow-up after a
	// redirect — skips the TCP handshake.
	pool := httpmsg.NewPool(64, httpmsg.Dialer(*timeout))
	defer pool.Close()

	var wg sync.WaitGroup
	start := time.Now()
	idx := 0
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for sec := 0; sec < *seconds; sec++ {
		for k := 0; k < *rps; k++ {
			i := idx
			idx++
			host := hosts[i%len(hosts)] // the DNS round-robin
			path := paths[rng.Intn(len(paths))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				f, err := pool.Get(host, path, *keepAlive, *timeout, 128<<20)
				if err != nil {
					outcomes[i] = outcome{elapsed: time.Since(t0), ttfb: -1}
					return
				}
				// TTFB is the final hop's first byte measured from the
				// fetch's start — redirect round-trips included, since that
				// is the wait the user actually saw.
				outcomes[i] = outcome{ok: f.StatusCode == httpmsg.StatusOK, redirected: f.Redirected,
					elapsed: time.Since(t0), ttfb: f.FirstByte.Sub(t0)}
			}()
		}
		if sec < *seconds-1 {
			<-ticker.C
		}
	}
	wg.Wait()

	var done, failed, redirected int
	var latency, ttfb stats.Summary
	for _, o := range outcomes {
		if !o.ok {
			failed++
			continue
		}
		done++
		if o.redirected {
			redirected++
		}
		latency.Add(o.elapsed.Seconds())
		if o.ttfb >= 0 {
			ttfb.Add(o.ttfb.Seconds())
		}
	}
	fmt.Printf("offered %d  completed %d  failed %d (%.1f%%)  redirected %d  wall %.1fs\n",
		total, done, failed, 100*float64(failed)/float64(total), redirected, time.Since(start).Seconds())
	for _, line := range []struct {
		name string
		s    *stats.Summary
	}{{"response", &latency}, {"ttfb", &ttfb}} {
		if line.s.N() == 0 {
			continue
		}
		fmt.Printf("%s: mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
			line.name,
			stats.FormatSeconds(line.s.Mean()),
			stats.FormatSeconds(line.s.Quantile(0.50)),
			stats.FormatSeconds(line.s.Quantile(0.95)),
			stats.FormatSeconds(line.s.Quantile(0.99)),
			stats.FormatSeconds(line.s.Max()))
	}

	if len(objs) > 0 {
		// The client-side gate: the same budget arithmetic the server's
		// /sweb/slo runs, but over what the client actually observed —
		// failures are errors, and a latency objective compares each
		// completed request's exact response time against the threshold
		// (no histogram-bucket rounding out here).
		rep := slo.Report{
			AtSeconds:     time.Since(start).Seconds(),
			WindowSeconds: float64(*seconds),
			Scope:         "client",
		}
		for _, o := range objs {
			var c slo.Counts
			for _, out := range outcomes {
				c.Total++
				if out.ok && (!o.IsLatency() || out.elapsed.Seconds() <= o.Threshold) {
					c.Good++
				}
			}
			rep.Objectives = append(rep.Objectives, slo.NewStatus(o, c, rep.WindowSeconds))
		}
		fmt.Print(slo.Render(rep))
		if rep.Breached() {
			fmt.Fprintln(os.Stderr, "swebload: SLO breached")
			os.Exit(1)
		}
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
