package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"yap/internal/core"
	"yap/internal/fleetcache"
	"yap/internal/jobs"
	"yap/internal/service"
	"yap/internal/sim"
)

// The daemon runs in a child process: the benchmark binary re-executes
// itself with these variables set.
const (
	envDaemonStore = "PERFBENCH_DAEMON_STORE"
	envDaemonTrace = "PERFBENCH_DAEMON_TRACE"
)

// cacheEntries is the evaluate LRU capacity, yapserve's -cache default.
const cacheEntries = 1024

// daemonSpanBase keeps daemon span IDs apart from client span IDs.
const daemonSpanBase = 1 << 62

// daemonMain serves one single-member daemon wired as cmd/yapserve wires
// one: a fleet cache shared by the HTTP service and the sweep-job seam,
// and a job manager on store. It prints "listening <addr>" once the
// loopback listener is bound and serves until SIGTERM.
func daemonMain(store string, tracing bool) int {
	logger := log.New(os.Stderr, "perfbench daemon: ", log.LstdFlags)
	defaults := core.Baseline()
	fleet := fleetcache.New(fleetcache.Config{CacheSize: cacheEntries})
	defer fleet.Close()

	var rec *recorder
	jcfg := jobs.Config{Dir: store, Logger: logger, Evaluate: fleet.EvaluateParams}
	if tracing {
		rec = newRecorder(daemonSpanBase)
		jcfg.Run = rec.runSlice
	}
	jm, err := jobs.Open(jcfg)
	if err != nil {
		logger.Printf("opening job store: %v", err)
		return 1
	}
	srv := service.New(service.Config{
		Defaults:   &defaults,
		CacheSize:  cacheEntries,
		Logger:     logger,
		FleetCache: fleet,
		Jobs:       jm,
	})
	var handler http.Handler = srv
	if tracing {
		handler = &tracedHandler{srv: srv, rec: rec}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	fmt.Printf("listening %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	code := 0
	select {
	case err := <-errc:
		logger.Printf("serve: %v", err)
		code = 1
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("pool drain: %v", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		httpSrv.Close()
	}
	if err := jm.Close(); err != nil {
		logger.Printf("job store close: %v", err)
		code = 1
	}
	return code
}

// runSlice is the traced jobs.Config.Run seam: the same engine call the
// nil default makes, inside a span. Jobs run one at a time in the
// benchmark, so a slice belongs to the job whose span encloses it.
func (r *recorder) runSlice(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
	start := time.Now()
	defer r.record(0, 0, "", "jobs.slice", start)
	if mode == "d2w" {
		return sim.RunD2WContext(ctx, opts)
	}
	return sim.RunW2WContext(ctx, opts)
}

// tracedHandler records a span around Server.ServeHTTP and serves the
// benchmark's own /perfbench/ endpoints.
type tracedHandler struct {
	srv *service.Server
	rec *recorder
}

// runtimeStats is the daemon's Go runtime counters, as /perfbench/runtime
// reports them.
type runtimeStats struct {
	TotalAlloc   uint64 `json:"total_alloc"`
	Mallocs      uint64 `json:"mallocs"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/perfbench/spans":
		w.Header().Set("Content-Type", "application/x-ndjson")
		writeSpans(json.NewEncoder(w), h.rec.snapshot()) //nolint:errcheck // the reader sees a short body
		return
	case "/perfbench/runtime":
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(runtimeStats{ //nolint:errcheck // the reader sees a short body
			TotalAlloc: ms.TotalAlloc, Mallocs: ms.Mallocs, NumGC: ms.NumGC, PauseTotalNs: ms.PauseTotalNs,
		})
		return
	}
	start := time.Now()
	h.srv.ServeHTTP(w, r)
	req, parent := parseTraceHeader(r.Header.Get(traceHeader))
	h.rec.record(0, parent, req, "server."+endpointOf(r), start)
}

func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/evaluate":
		return "evaluate"
	case p == "/v1/evaluate/batch":
		return "batch"
	case p == "/v1/simulate":
		return "simulate"
	case p == "/v1/jobs" && r.Method == http.MethodPost:
		return "jobs.submit"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/stream"):
		return "jobs.stream"
	case p == "/metrics", p == "/healthz":
		return p[1:]
	default:
		return "other"
	}
}

// daemon is the parent's handle on a running child daemon.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	store string
	http  *http.Client  // untraced, for /metrics and /perfbench/ reads
	done  chan struct{} // closed once the process has been reaped
	once  sync.Once
}

// startDaemon launches a daemon on a fresh store directory under dir and
// waits until it answers /healthz.
func startDaemon(ctx context.Context, dir string, tracing bool) (*daemon, error) {
	store, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, fmt.Errorf("creating store directory: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		os.RemoveAll(store)
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		os.RemoveAll(store)
		return nil, fmt.Errorf("daemon stdout pipe: %w", err)
	}
	defer pr.Close()
	trace := "0"
	if tracing {
		trace = "1"
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envDaemonStore+"="+store, envDaemonTrace+"="+trace)
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		pw.Close()
		os.RemoveAll(store)
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	pw.Close()
	d := &daemon{cmd: cmd, store: store, done: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{}}}
	go func() {
		// The daemon logs its own shutdown failures to the shared stderr.
		cmd.Wait() //nolint:errcheck
		close(d.done)
	}()

	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		line, err := bufio.NewReader(pr).ReadString('\n')
		if a, ok := strings.CutPrefix(strings.TrimSpace(line), "listening "); ok && err == nil {
			addr <- a
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("daemon exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not start listening within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the daemon to exit (killing it after a
// grace period) and removes its store. Safe to call more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process needs no signal
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
			<-d.done
		}
		d.http.CloseIdleConnections()
		os.RemoveAll(d.store)
	})
}

// rssMB reads the daemon's resident set size in MiB.
func (d *daemon) rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuSeconds reads the daemon's user plus system CPU time, all threads.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("malformed /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// sampleRSS polls the daemon's RSS until stop closes and reports the peak
// and the sample count.
func (d *daemon) sampleRSS(stop <-chan struct{}) (peak float64, n int) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if mb, err := d.rssMB(); err == nil {
			peak = max(peak, mb)
			n++
		}
		select {
		case <-stop:
			return peak, n
		case <-t.C:
		}
	}
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// scrape reads the unlabeled series of /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			m[name] = v
		}
	}
	return m
}

func (d *daemon) runtimeStats() (runtimeStats, error) {
	var rs runtimeStats
	body, err := d.get("/perfbench/runtime")
	if err == nil {
		err = json.Unmarshal(body, &rs)
	}
	return rs, err
}

func (d *daemon) spans() ([]span, error) {
	body, err := d.get("/perfbench/spans")
	if err != nil {
		return nil, err
	}
	var out []span
	dec := json.NewDecoder(strings.NewReader(string(body)))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("decoding daemon spans: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
