package main

// The distributed-simulation drill (-dist): a true multi-process
// topology. It starts N yapserve -worker daemons, each a `yapload serve`
// child running internal/daemon.Run, points an in-process coordinator at
// them, and asserts the subsystem's load-bearing invariants end to end
// over real HTTP:
//
//   - bit-identity: every distributed run (W2W and D2W) merges to exactly
//     the sim.Result a single-node run produces for the same seed, and
//     repeated runs agree with each other — including while coordinator-
//     side dispatch faults (-dist-faults) are being injected;
//   - the /v1/simulate surface of a coordinator daemon reports the same
//     yields with distributed=true, and /metrics exposes the fleet
//     counters;
//   - worker death (-dist-kill, default on): after SIGKILLing one worker
//     mid-drill, runs still complete bit-identically through shard
//     reassignment, and the reassignment is observable in the stats.
//
// Exits 1 when any invariant is violated.

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/dist"
	"yap/internal/faultinject"
	"yap/internal/resilience"
	"yap/internal/service"
	"yap/internal/sim"
)

var (
	distMode   = flag.Bool("dist", false, "run the distributed-simulation drill instead of the load mix")
	distNum    = flag.Int("dist-workers", 3, "worker processes to spawn for the -dist drill")
	distKill   = flag.Bool("dist-kill", true, "SIGKILL one worker mid-drill and require recovery via reassignment")
	distFaults = flag.String("dist-faults", "", "coordinator-side fault spec for the -dist drill (dist.* hooks)")
)

// workerProc is one drill daemon: a `yapload serve` child process.
type workerProc struct {
	cmd *exec.Cmd
	url string
}

func (w *workerProc) kill() {
	if w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
		_ = w.cmd.Wait()
	}
}

// startDrillWorker starts one yapserve -worker daemon for the drill.
func startDrillWorker(logger *log.Logger) (*workerProc, error) {
	w, err := startSubprocess(nil, "-worker", "-addr", "127.0.0.1:0",
		"-max-sims", "2", "-timeout", "30s", "-breaker-threshold", "-1")
	if err == nil {
		logger.Printf("dist: worker pid %d up at %s", w.cmd.Process.Pid, w.url)
	}
	return w, err
}

// listeningPrefix marks the log line internal/daemon.Run writes once it
// listens; the bound URL follows it up to the next space.
const listeningPrefix = "listening on http://"

// startSubprocess starts `yapload serve` with the given yapserve flags
// (plus any extra environment entries), relays its log to stderr and
// waits for the log line announcing the bound URL.
func startSubprocess(extraEnv []string, args ...string) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	if len(extraEnv) > 0 {
		cmd.Env = append(os.Environ(), extraEnv...)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if _, rest, ok := strings.Cut(line, listeningPrefix); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case urls <- "http://" + addr:
				default:
				}
			}
		}
		// Keep relaying so the child never blocks on a full pipe.
		_, _ = io.Copy(os.Stderr, stderr)
		close(urls)
	}()
	select {
	case u, ok := <-urls:
		if ok {
			return &workerProc{cmd: cmd, url: u}, nil
		}
		_ = cmd.Wait()
		return nil, fmt.Errorf("subprocess exited before listening: %v", cmd.ProcessState)
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, errors.New("subprocess did not log a listen address within 15s")
	}
}

// drill collects violations with the same contract as the load mix.
type drill struct {
	logger     *log.Logger
	violations []string
}

func (d *drill) violation(format string, args ...any) {
	d.violations = append(d.violations, fmt.Sprintf(format, args...))
	d.logger.Printf("VIOLATION: "+format, args...)
}

func stripElapsed(r sim.Result) sim.Result {
	r.Elapsed = 0
	return r
}

// runDistDrill is the parent side; returns the process exit code.
func runDistDrill(logger *log.Logger, seed uint64, wafers, dies int) int {
	d := &drill{logger: logger}
	if *distNum < 2 {
		logger.Fatal("-dist-workers must be at least 2 (reassignment needs a survivor)")
	}

	var inj *faultinject.Injector
	if *distFaults != "" {
		var err error
		if inj, err = faultinject.ParseSpec(*distFaults); err != nil {
			logger.Fatalf("invalid -dist-faults: %v", err)
		}
		logger.Printf("dist: coordinator fault injection ACTIVE: %s", inj)
	}

	workers := make([]*workerProc, 0, *distNum)
	defer func() {
		for _, w := range workers {
			w.kill()
		}
	}()
	urls := make([]string, 0, *distNum)
	for i := 0; i < *distNum; i++ {
		w, err := startDrillWorker(logger)
		if err != nil {
			logger.Fatalf("spawning worker %d: %v", i, err)
		}
		workers = append(workers, w)
		urls = append(urls, w.url)
	}

	coord, err := dist.New(dist.Config{
		Workers:           urls,
		HeartbeatInterval: 500 * time.Millisecond,
		DownBackoff:       10 * time.Millisecond,
		MaxShardAttempts:  8,
		Faults:            inj,
		Logger:            logger,
		ClientFactory: func(u string) (*client.Client, error) {
			return client.New(client.Config{
				BaseURL:     u,
				MaxAttempts: 2,
				Backoff:     resilience.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			})
		},
	})
	if err != nil {
		logger.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Single-node baselines the whole drill is measured against.
	w2wOpts := sim.Options{Params: core.Baseline(), Seed: seed, Wafers: wafers, Workers: 2}
	d2wOpts := sim.Options{Params: core.Baseline(), Seed: seed, Dies: dies, Workers: 2}
	w2wBase, err := sim.RunW2WContext(ctx, w2wOpts)
	if err != nil {
		logger.Fatalf("baseline w2w: %v", err)
	}
	d2wBase, err := sim.RunD2WContext(ctx, d2wOpts)
	if err != nil {
		logger.Fatalf("baseline d2w: %v", err)
	}

	check := func(label, mode string, opts sim.Options, want sim.Result) bool {
		got, info, err := coord.Simulate(ctx, mode, opts)
		if err != nil {
			d.violation("%s: distributed run failed: %v", label, err)
			return false
		}
		if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
			d.violation("%s: distributed result diverges from single node:\n  dist   %+v\n  single %+v",
				label, stripElapsed(got), stripElapsed(want))
			return false
		}
		logger.Printf("dist: %s ok (%d shards, %d reassigned): %s", label, info.Shards, info.Reassigned, got)
		return true
	}

	// Phase 1: bit-identity, twice per mode for run-to-run reproducibility.
	check("w2w#1", "w2w", w2wOpts, w2wBase)
	check("w2w#2", "w2w", w2wOpts, w2wBase)
	check("d2w#1", "d2w", d2wOpts, d2wBase)
	check("d2w#2", "d2w", d2wOpts, d2wBase)

	// Phase 2: the same fleet behind a coordinator daemon's /v1/simulate,
	// asserted through the public HTTP surface plus /metrics.
	coordURL, coordShutdown, err := startCoordinatorServer(coord, logger)
	if err != nil {
		logger.Fatalf("coordinator server: %v", err)
	}
	defer coordShutdown()
	cli, err := client.New(client.Config{BaseURL: coordURL, MaxAttempts: 3})
	if err != nil {
		logger.Fatalf("coordinator client: %v", err)
	}
	resp, err := cli.Simulate(ctx, service.SimulateRequest{Mode: "w2w", Seed: seed, Wafers: wafers, Workers: 2})
	switch {
	case err != nil:
		d.violation("coordinator /v1/simulate failed: %v", err)
	case !resp.Distributed:
		d.violation("coordinator /v1/simulate did not report distributed=true")
	case resp.Yield != w2wBase.Yield || resp.Dies != w2wBase.Counts.Dies || resp.Survived != w2wBase.Counts.Survived:
		d.violation("coordinator /v1/simulate yield %v (%d/%d dies) != single-node %v (%d/%d)",
			resp.Yield, resp.Survived, resp.Dies, w2wBase.Yield, w2wBase.Counts.Survived, w2wBase.Counts.Dies)
	default:
		logger.Printf("dist: coordinator daemon ok (distributed=true, %d shards)", resp.Shards)
	}

	// Phase 3: kill one worker and require recovery through reassignment.
	if *distKill {
		before := coord.Stats().ShardsReassigned
		logger.Printf("dist: killing worker pid %d (%s)", workers[0].cmd.Process.Pid, workers[0].url)
		workers[0].kill()
		recovered := false
		for i := 0; i < 10 && ctx.Err() == nil; i++ {
			if !check(fmt.Sprintf("w2w-postkill#%d", i+1), "w2w", w2wOpts, w2wBase) {
				break
			}
			if coord.Stats().ShardsReassigned > before {
				recovered = true
				break
			}
		}
		if !recovered {
			d.violation("killed worker never caused an observed shard reassignment (stats %+v)", coord.Stats())
		} else {
			logger.Printf("dist: recovery ok — reassignments %d -> %d, fleet %d/%d up",
				before, coord.Stats().ShardsReassigned, coord.Stats().WorkersUp, coord.Stats().WorkersKnown)
		}
		if v := scrapeCounter(ctx, d, coordURL, "yapserve_dist_shards_reassigned_total"); v == 0 {
			d.violation("reassignments not visible in /metrics")
		}
	}

	fmt.Printf("yapload: dist drill: %d workers, stats %+v\n", *distNum, coord.Stats())
	return d.exit("all distributed invariants held")
}

// startCoordinatorServer exposes the coordinator through a real yapserve
// daemon on a loopback port. It stays in-process rather than a `yapload
// serve -workers` child because the drill calls this very coordinator's
// Simulate and Stats directly.
func startCoordinatorServer(coord *dist.Coordinator, logger *log.Logger) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := service.New(service.Config{
		MaxConcurrentSims: 2,
		RequestTimeout:    90 * time.Second,
		BreakerThreshold:  -1,
		Distributor:       coord,
		Logger:            logger,
	})
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln) //nolint:errcheck // closed by shutdown below
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)     //nolint:errcheck
		httpSrv.Shutdown(ctx) //nolint:errcheck
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// scrapeMetric fetches base's /metrics and returns the value of the
// named un-labelled series.
func scrapeMetric(ctx context.Context, base, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //nolint:errcheck
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("/metrics lacks series %s", name)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// scrapeCounter is scrapeMetric for a drill check: a failed scrape is a
// violation and reads as 0.
func scrapeCounter(ctx context.Context, d *drill, base, name string) float64 {
	v, err := scrapeMetric(ctx, base, name)
	if err != nil {
		d.violation("scraping %s from %s: %v", name, base, err)
	}
	return v
}

// exit prints the collected violations and maps them onto an exit code;
// with none it prints the drill's success line.
func (d *drill) exit(held string) int {
	if len(d.violations) > 0 {
		for _, v := range d.violations {
			fmt.Fprintln(os.Stderr, "yapload: VIOLATION:", v)
		}
		return 1
	}
	fmt.Println("yapload:", held)
	return 0
}
