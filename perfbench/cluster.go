package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sweb/internal/httpd"
	"sweb/internal/metrics"
)

// cluster is a set of running swebd processes sharing one manifest.
type cluster struct {
	dir   string
	addrs []string // HTTP host:port per node
	procs []*exec.Cmd
	// startCPU is the CPU time the nodes spent from exec until each first
	// answered /sweb/status, summed over nodes.
	startCPU time.Duration
}

// freePorts reserves n distinct loopback ports of the given network by
// binding :0 and releasing them. The window until swebd binds is tiny.
func freePorts(network string, n int) ([]string, error) {
	var out []string
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		if network == "udp" {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			closers = append(closers, pc)
			out = append(out, pc.LocalAddr().String())
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		closers = append(closers, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startCluster launches one swebd per node on the docroots and manifest
// under dir. It returns once every node answers /sweb/status; gossip
// convergence is waitGossip's job.
func startCluster(o options, w workloadCfg, dir, manifest string, roots []string, traced bool) (*cluster, error) {
	httpAddrs, err := freePorts("tcp", w.Nodes)
	if err != nil {
		return nil, err
	}
	udpAddrs, err := freePorts("udp", w.Nodes)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i := range httpAddrs {
		peers = append(peers, fmt.Sprintf("%d=%s/%s", i, httpAddrs[i], udpAddrs[i]))
	}
	cl := &cluster{dir: dir, addrs: httpAddrs}
	for i := 0; i < w.Nodes; i++ {
		args := []string{
			"-id", strconv.Itoa(i),
			"-addr", httpAddrs[i],
			"-udp", udpAddrs[i],
			"-peers", strings.Join(peers, ","),
			"-docroot", roots[i],
			"-manifest", manifest,
			"-policy", "sweb",
			"-cache-bytes", strconv.FormatInt(w.CacheBytes, 10),
			"-grace", "2s",
		}
		if traced {
			// -trace-out turns the node's recorder on; the events are read
			// from /sweb/trace before shutdown.
			args = append(args, "-trace-out", filepath.Join(dir, fmt.Sprintf("node%d.trace.json", i)))
		}
		logFile, err := os.Create(filepath.Join(dir, fmt.Sprintf("node%d.log", i)))
		if err != nil {
			cl.stop()
			return nil, err
		}
		cmd := exec.Command(o.swebd, args...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		// A benchmark that dies without its deferred clean-up must not
		// leave nodes behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logFile.Close()
		if err != nil {
			cl.stop()
			return nil, fmt.Errorf("start swebd: %w", err)
		}
		cl.procs = append(cl.procs, cmd)
		// Nodes start one after another, each answering before the next
		// launches: a node's first broadcast then always reaches the
		// nodes before it and never the ones after, so gossip converges
		// one broadcast period after the first node started, every time.
		deadline := time.Now().Add(15 * time.Second)
		for {
			if _, err := cl.status(i); err == nil {
				cpu, err := schedCPU(cmd.Process.Pid)
				if err != nil {
					cl.stop()
					return nil, err
				}
				cl.startCPU += cpu
				break
			}
			if time.Now().After(deadline) {
				cl.stop()
				return nil, fmt.Errorf("node %d never answered /sweb/status (log in %s)", i, dir)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return cl, nil
}

// waitGossip blocks until every node holds a fresh, available loadd row
// for every peer.
func (cl *cluster) waitGossip(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for i := range cl.addrs {
			st, err := cl.status(i)
			if err != nil {
				return err
			}
			seen := 0
			for _, p := range st.Peers {
				if p.Node != i && p.HaveSample && p.Available {
					seen++
				}
			}
			if seen < len(cl.addrs)-1 {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gossip did not converge within %s", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// introClient scrapes the introspection endpoints on fresh connections,
// so no idle keep-alive connection outlives a scrape.
var introClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func (cl *cluster) get(node int, path string) ([]byte, error) {
	resp, err := introClient.Get("http://" + cl.addrs[node] + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

func (cl *cluster) status(node int) (*httpd.StatusReport, error) {
	b, err := cl.get(node, "/sweb/status")
	if err != nil {
		return nil, err
	}
	var st httpd.StatusReport
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("/sweb/status: %w", err)
	}
	return &st, nil
}

func (cl *cluster) metrics(node int) ([]metrics.Sample, error) {
	b, err := cl.get(node, "/sweb/metrics")
	if err != nil {
		return nil, err
	}
	return metrics.ParseText(bytes.NewReader(b))
}

// traceDump reads a node's raw trace event stream.
func (cl *cluster) traceDump(node int) (*httpd.TraceDump, error) {
	b, err := cl.get(node, "/sweb/trace")
	if err != nil {
		return nil, err
	}
	var d httpd.TraceDump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("/sweb/trace: %w", err)
	}
	return &d, nil
}

// stop terminates every node gracefully (SIGTERM, so traced nodes write
// their trace files), kills any that outlive the grace period, and waits
// for all of them.
func (cl *cluster) stop() {
	for _, p := range cl.procs {
		if p.Process != nil {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, p := range cl.procs {
		if p.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func() {
			_ = p.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	cl.procs = nil
}

// procStat is one process's kernel accounting at an instant.
type procStat struct {
	cpuTicks   int64 // utime + stime
	syscr      int64 // read-family syscalls
	syscw      int64 // write-family syscalls
	ctxSwitch  int64 // voluntary + involuntary, summed over threads
	peakRSSKiB int64 // VmHWM
}

func (a procStat) sub(b procStat) procStat {
	return procStat{
		cpuTicks:   a.cpuTicks - b.cpuTicks,
		syscr:      a.syscr - b.syscr,
		syscw:      a.syscw - b.syscw,
		ctxSwitch:  a.ctxSwitch - b.ctxSwitch,
		peakRSSKiB: a.peakRSSKiB,
	}
}

func (a procStat) add(b procStat) procStat {
	return procStat{
		cpuTicks:   a.cpuTicks + b.cpuTicks,
		syscr:      a.syscr + b.syscr,
		syscw:      a.syscw + b.syscw,
		ctxSwitch:  a.ctxSwitch + b.ctxSwitch,
		peakRSSKiB: a.peakRSSKiB + b.peakRSSKiB,
	}
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// readProc samples /proc/<pid>/{stat,io,status} and the per-thread
// status files for context switches.
func readProc(pid int) (procStat, error) {
	var ps procStat
	base := fmt.Sprintf("/proc/%d", pid)
	b, err := os.ReadFile(base + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("%s/stat: short line", base)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpuTicks = ut + st
	if err := scanKV(base+"/io", func(k, v string) {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "syscr":
			ps.syscr = n
		case "syscw":
			ps.syscw = n
		}
	}); err != nil {
		return ps, err
	}
	if err := scanKV(base+"/status", func(k, v string) {
		if k == "VmHWM" {
			ps.peakRSSKiB, _ = strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}); err != nil {
		return ps, err
	}
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		_ = scanKV(base+"/task/"+t.Name()+"/status", func(k, v string) {
			if k == "voluntary_ctxt_switches" || k == "nonvoluntary_ctxt_switches" {
				n, _ := strconv.ParseInt(v, 10, 64)
				ps.ctxSwitch += n
			}
		})
	}
	return ps, nil
}

// schedCPU is a process's CPU time so far at nanosecond resolution: the
// on-CPU time from /proc/<pid>/task/*/schedstat, summed over threads.
func schedCPU(pid int) (time.Duration, error) {
	base := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(base)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(base + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited meanwhile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", base, t.Name())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += n
	}
	return time.Duration(ns), nil
}

// scanKV calls fn for every "key: value" line of a /proc file.
func scanKV(path string, fn func(k, v string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok {
			fn(strings.TrimSpace(k), strings.TrimSpace(v))
		}
	}
	return sc.Err()
}

// nodeSnap is one node's accounting at one instant.
type nodeSnap struct {
	proc        procStat
	samples     []metrics.Sample
	stats       httpd.Stats
	traceEvents int
}

// snapshot samples every node: /proc first, then the scrapes, so the
// scrape's own work falls outside a window that starts here and inside
// none that ends here (the end snapshot reads /proc before scraping too).
func (cl *cluster) snapshot() ([]nodeSnap, error) {
	out := make([]nodeSnap, len(cl.procs))
	for i, p := range cl.procs {
		ps, err := readProc(p.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[i].proc = ps
	}
	for i := range cl.procs {
		smp, err := cl.metrics(i)
		if err != nil {
			return nil, err
		}
		st, err := cl.status(i)
		if err != nil {
			return nil, err
		}
		out[i].samples, out[i].stats, out[i].traceEvents = smp, st.Stats, st.Trace.Events
	}
	return out, nil
}
