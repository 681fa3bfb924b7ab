// Command yapload is a chaos-capable load generator for yapserve: it
// drives a workload mix (analytic evaluates, Monte-Carlo simulates,
// sweeps, plus deliberately invalid requests) through the retrying
// client and asserts the resilience invariants on every outcome:
//
//   - every request is accounted for — success (possibly partial), a
//     typed error with a documented code, or bounded retry exhaustion;
//     nothing hangs and nothing returns an unclassifiable failure;
//   - deliberately invalid requests come back as typed 4xx, never 5xx;
//   - every full (non-partial) simulate with the same seed and sample
//     count reports the identical yield — determinism survives chaos;
//   - partial simulate responses satisfy completed < requested.
//
// With -target it loads an external server; without it, it spins up an
// in-process yapserve on a loopback port — armed with the -faults plan
// (or YAP_FAULTS) — so a single command is a full chaos drill:
//
//	yapload -n 500 -c 16 -faults 'seed=7,sim.*=0.05:error,service.*=0.1:error'
//
// The real-process drills below run their daemons as subprocesses:
// `yapload serve <yapserve flags>` runs internal/daemon.Run, the same
// wiring cmd/yapserve runs, so every drill daemon is a yapserve.
//
// With -dist it drills the distributed-simulation subsystem: it starts
// -dist-workers yapserve -worker processes, shards runs across them
// through internal/dist, and asserts bit-identity against single-node
// baselines plus recovery from a SIGKILLed worker (see dist.go for the
// full invariant list):
//
//	yapload -dist -dist-workers 3 -dist-faults 'seed=5,dist.dispatch=0.1:error'
//
// With -jobs it drills the durable asynchronous job subsystem: it starts
// a yapserve with -jobs-dir, SIGKILLs it after the submitted job has
// durably checkpointed, restarts it over the same store, and requires
// the resumed job to finish with a result bit-identical to an
// uninterrupted run (see jobs.go):
//
//	yapload -jobs -jobs-wafers 120
//
// With -stream it drills the live convergence stream: it watches a paced
// job on a yapserve with -jobs-dir over SSE, drops the connection
// mid-run, resumes from the last event ID, and requires the streamed
// final result to be bit-identical to the poll endpoint's — plus an
// epsilon-armed job that must stop early with the stop visible on
// /metrics (see stream.go):
//
//	yapload -stream
//
// With -ha it drills the replicated job control plane: it starts a
// three-member yapserve cluster (-peers, sharing a fleet cache), submits
// a paced job through a follower (exercising the client's
// leader-following redirect), SIGKILLs the LEADER after the first
// durable checkpoint, and requires a surviving follower to finish the
// job with a bit-identical result — then kills a second member and
// requires quorumless submits to be refused (see ha.go):
//
//	yapload -ha -ha-wafers 120
//
// With -cache it drills the fleet-wide evaluate cache over a
// three-member yapserve fleet wired through -cache-peers (see cache.go):
//
//	yapload -cache
//
// Exits 1 when any invariant is violated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"yap/internal/client"
	"yap/internal/daemon"
	"yap/internal/faultinject"
	"yap/internal/randx"
	"yap/internal/resilience"
	"yap/internal/service"
)

// knownErrorCodes are the documented ErrorDetail codes (types.go); any
// other code on the wire is an invariant violation.
var knownErrorCodes = map[string]bool{
	"method_not_allowed": true, "invalid_json": true, "invalid_params": true,
	"invalid_mode": true, "too_many_points": true, "body_too_large": true,
	"deadline_exceeded": true, "canceled": true, "overloaded": true,
	"internal": true, "not_found": true, "jobs_disabled": true,
	"job_terminal": true, "not_leader": true, "replica_disabled": true,
	"no_quorum": true, "cache_miss": true, "hash_mismatch": true,
}

// tally aggregates outcomes across workers.
type tally struct {
	mu         sync.Mutex
	ok         int
	partial    int
	typed      map[string]int
	exhausted  int
	violations []string
	// yields pins the deterministic full-run yield per simulate mode.
	yields map[string]float64
}

func (t *tally) violation(format string, args ...any) {
	t.mu.Lock()
	t.violations = append(t.violations, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	var (
		target   = flag.String("target", "", "server base URL; empty starts an in-process server on a loopback port")
		faults   = flag.String("faults", "", "fault-injection spec for the in-process server (default: $"+faultinject.EnvVar+")")
		n        = flag.Int("n", 200, "total requests")
		conc     = flag.Int("c", 8, "concurrent workers")
		seed     = flag.Uint64("seed", 1, "workload-mix seed")
		attempts = flag.Int("attempts", 6, "client retry attempts per request")
		wafers   = flag.Int("sim-wafers", 8, "wafers per W2W simulate")
		dies     = flag.Int("sim-dies", 800, "dies per D2W simulate")
		timeout  = flag.Duration("timeout", 2*time.Minute, "whole-run deadline")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "yapload: ", log.LstdFlags)

	if *distMode {
		os.Exit(runDistDrill(logger, *seed, *wafers, *dies))
	}
	if *jobsMode {
		os.Exit(runJobsDrill(logger, *seed))
	}
	if *streamMode {
		os.Exit(runStreamDrill(logger, *seed))
	}
	if *haMode {
		os.Exit(runHADrill(logger, *seed))
	}
	if *cacheMode {
		os.Exit(runCacheDrill(logger, *seed))
	}

	base := *target
	var inj *faultinject.Injector
	if base == "" {
		var err error
		if *faults != "" {
			inj, err = faultinject.ParseSpec(*faults)
		} else {
			inj, err = faultinject.FromEnv()
		}
		if err != nil {
			logger.Fatalf("invalid fault spec: %v", err)
		}
		var shutdown func()
		base, shutdown, err = startLocalServer(inj, logger)
		if err != nil {
			logger.Fatalf("starting local server: %v", err)
		}
		defer shutdown()
	} else if *faults != "" {
		logger.Fatal("-faults only applies to the in-process server; arm the external one via its own YAP_FAULTS")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	t := &tally{typed: make(map[string]int), yields: make(map[string]float64)}
	perWorker := (*n + *conc - 1) / *conc
	var wg sync.WaitGroup
	issued := 0
	for w := 0; w < *conc && issued < *n; w++ {
		count := perWorker
		if issued+count > *n {
			count = *n - issued
		}
		first := issued
		issued += count
		wg.Add(1)
		go func(w, first, count int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:     base,
				MaxAttempts: *attempts,
				Backoff:     resilience.Backoff{Base: 2 * time.Millisecond, Max: 250 * time.Millisecond, Seed: *seed + uint64(w)},
				Breaker:     resilience.NewBreaker(resilience.BreakerConfig{Threshold: 1 << 30}),
			})
			if err != nil {
				t.violation("worker %d: %v", w, err)
				return
			}
			rng := randx.Derive(*seed, uint64(w))
			for i := 0; i < count; i++ {
				runOne(ctx, c, t, rng, first+i, *wafers, *dies)
			}
		}(w, first, count)
	}
	wg.Wait()

	if ctx.Err() != nil {
		t.violation("run overran its %v deadline — some request hung", *timeout)
	}
	accounted := t.ok + t.partial + t.exhausted
	for _, cnt := range t.typed {
		accounted += cnt
	}
	if accounted != *n {
		t.violation("accounted %d of %d requests", accounted, *n)
	}

	fmt.Printf("yapload: %d requests -> %d ok, %d partial, %d exhausted, typed %v\n",
		*n, t.ok, t.partial, t.exhausted, t.typed)
	if inj != nil {
		fmt.Printf("yapload: fault activity: %s\n", inj.StatsString())
	}
	if len(t.violations) > 0 {
		for _, v := range t.violations {
			fmt.Fprintln(os.Stderr, "yapload: VIOLATION:", v)
		}
		os.Exit(1)
	}
	fmt.Println("yapload: all invariants held")
}

// serve is the hidden `yapload serve <yapserve flags>` mode every drill
// daemon runs: yapserve's own wiring, logging under a per-process prefix
// so interleaved members stay attributable. SIGINT/SIGTERM drain it.
func serve(args []string) {
	logger := log.New(os.Stderr, fmt.Sprintf("yapserve[%d]: ", os.Getpid()), log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, args, logger); err != nil && !errors.Is(err, flag.ErrHelp) {
		logger.Fatal(err)
	}
}

// startLocalServer boots an in-process yapserve on 127.0.0.1:0 and
// returns its base URL and a shutdown func. The load mix keeps this one
// in-process rather than a `yapload serve` child because it prints the
// server-side injector's fault activity, which lives in this process.
func startLocalServer(inj *faultinject.Injector, logger *log.Logger) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := service.New(service.Config{
		MaxConcurrentSims: 2,
		MaxQueuedSims:     8,
		RequestTimeout:    5 * time.Second,
		RetryAfter:        20 * time.Millisecond,
		BreakerThreshold:  -1, // the load test wants to see raw failures, not breaker sheds
		Faults:            inj,
	})
	if inj != nil {
		logger.Printf("in-process server: fault injection ACTIVE: %s", inj)
	}
	logger.Printf("in-process server: resilience: %s", srv.ResilienceSummary())
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln) //nolint:errcheck // closed by shutdown below
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)     //nolint:errcheck
		httpSrv.Shutdown(ctx) //nolint:errcheck
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// runOne issues the n-th request from the workload mix and folds its
// outcome into the tally. Roughly: 5% deliberately invalid, then 55%
// evaluate / 30% simulate / 10% sweep.
func runOne(ctx context.Context, c *client.Client, t *tally, rng *randx.Source, n, wafers, dies int) {
	roll := rng.Float64()
	switch {
	case roll < 0.05:
		// Deliberately invalid: negative pitch must be a typed 4xx.
		_, err := c.Evaluate(ctx, service.EvaluateRequest{
			Params: []byte(`{"Pitch": -1}`),
		})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status < 400 || apiErr.Status >= 500 {
			t.violation("bad request %d not answered with a typed 4xx: %v", n, err)
			t.record(err)
			return
		}
		t.record(err)
	case roll < 0.60:
		_, err := c.Evaluate(ctx, service.EvaluateRequest{})
		t.record(err)
	case roll < 0.75:
		resp, err := c.Simulate(ctx, service.SimulateRequest{Mode: "w2w", Seed: 42, Wafers: wafers, Workers: 2})
		t.checkSimulate(resp, err, n)
	case roll < 0.90:
		resp, err := c.Simulate(ctx, service.SimulateRequest{Mode: "d2w", Seed: 42, Dies: dies, Workers: 2})
		t.checkSimulate(resp, err, n)
	default:
		_, err := c.Sweep(ctx, service.SweepRequest{Mode: "w2w", Points: []json.RawMessage{
			[]byte(`{}`), []byte(`{"Pitch": 3e-6}`), []byte(`{"Pitch": 4e-6}`),
		}})
		t.record(err)
	}
}

// checkSimulate applies the simulate-specific invariants before recording.
func (t *tally) checkSimulate(resp *service.SimulateResponse, err error, n int) {
	if err != nil {
		t.record(err)
		return
	}
	if resp.Partial {
		if resp.Completed <= 0 || resp.Completed >= resp.Requested {
			t.violation("request %d: partial with completed %d / requested %d", n, resp.Completed, resp.Requested)
		}
		t.mu.Lock()
		t.partial++
		t.mu.Unlock()
		return
	}
	t.record(nil)
	// Full runs with identical seed and sample count must agree exactly.
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.yields[resp.Mode]; ok {
		if prev != resp.Yield {
			t.violations = append(t.violations,
				fmt.Sprintf("request %d: %s yield %v diverges from earlier %v under identical seed", n, resp.Mode, resp.Yield, prev))
		}
	} else {
		t.yields[resp.Mode] = resp.Yield
	}
}

// record classifies one outcome under the resolution invariant.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case err == nil:
		t.ok++
	default:
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			if !knownErrorCodes[apiErr.Code] {
				t.violations = append(t.violations, fmt.Sprintf("undocumented error code %q: %v", apiErr.Code, err))
			}
			if errors.Is(err, client.ErrAttemptsExhausted) {
				t.exhausted++
			} else {
				t.typed[apiErr.Code]++
			}
			return
		}
		if errors.Is(err, client.ErrAttemptsExhausted) {
			t.exhausted++
			return
		}
		t.violations = append(t.violations, fmt.Sprintf("unclassifiable outcome: %v", err))
		t.exhausted++
	}
}
