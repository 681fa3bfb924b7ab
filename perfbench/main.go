// Command perfbench is the repository benchmark. It starts a single-member
// YAP daemon in a child process, wired as cmd/yapserve wires one, serves it
// on a loopback listener, drives one seeded closed-loop workload through
// internal/client with two clients and checks every answer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload eval-hot|sweep-cold|montecarlo \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the workload for S seconds untraced and
// prints the end-to-end metrics. With --trace 1 it runs a fixed amount of
// the workload twice, untraced and then traced, and prints the per-layer
// metrics: span times from the client, the daemon's HTTP handler and the
// job slice seam, /metrics and runtime deltas, and a single-threaded
// replay of the workload's inputs through core, fleetcache and sim. The
// last line of standard output is the JSON result; a wrong answer makes
// the command exit 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"yap/internal/client"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	dir      string // stores and traces
	sz       sizes
}

func main() {
	if store := os.Getenv(envDaemonStore); store != "" {
		os.Exit(daemonMain(store, os.Getenv(envDaemonTrace) == "1"))
	}
	o := options{sz: fullSizes, dir: filepath.Join(".bench_build", "work")}
	flag.StringVar(&o.workload, "workload", "", "eval-hot, sweep-cold or montecarlo")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its result; wrong answers are
// reported in the result, anything that stops the measurement as an error.
func run(ctx context.Context, o options, out io.Writer) (result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	wl, err := newWorkload(o.workload, o.seed, o.sz)
	if err != nil {
		return result{}, err
	}
	printMetadata(out, metadata(o, wl))
	if o.trace == 1 {
		return runTraced(ctx, o, wl, out)
	}
	return runEndToEnd(ctx, o, wl, out)
}

// phase is one daemon with its two warmed clients.
type phase struct {
	d     *daemon
	cls   [2]*benchClient
	tr    *http.Transport
	setup time.Duration
}

func (p *phase) close() {
	p.tr.CloseIdleConnections()
	p.d.stop()
}

// startPhase starts a daemon and warms it from both clients; the set-up
// time runs from daemon construction to the end of the warm-up.
func startPhase(ctx context.Context, o options, wl workload, tracing bool) (*phase, error) {
	start := time.Now()
	d, err := startDaemon(ctx, o.dir, tracing)
	if err != nil {
		return nil, err
	}
	p := &phase{d: d, tr: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	var rt http.RoundTripper = p.tr
	if tracing {
		rt = tracingTransport{base: p.tr}
	}
	for i := range p.cls {
		api, err := client.New(client.Config{BaseURL: d.base, HTTPClient: &http.Client{Transport: rt}, MaxAttempts: 1})
		if err != nil {
			p.close()
			return nil, err
		}
		p.cls[i] = &benchClient{id: i, api: api}
	}
	wl.reset()
	if err := parallel(len(p.cls), func(c int) error { return wl.warm(ctx, p.cls[c]) }); err != nil {
		p.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p.setup = time.Since(start)
	return p, nil
}

// window runs both clients' closed loops until more stops each. The
// clients mostly wait on the daemon, so they run on one P: the load
// generator's own idle spinning then leaves the two cores to the daemon,
// which runs with the default GOMAXPROCS like yapserve.
func (p *phase) window(ctx context.Context, wl workload, more func(c, k int) bool) measured {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	parallel(len(p.cls), func(c int) error { //nolint:errcheck // run records failures per operation
		wl.run(ctx, p.cls[c], func(k int) bool { return ctx.Err() == nil && more(c, k) })
		return nil
	})
	return measured{start: start, elapsed: time.Since(start)}
}

func runEndToEnd(ctx context.Context, o options, wl workload, out io.Writer) (result, error) {
	var p *phase
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	// Set up at least three times, and up to o.sz.setups times while the
	// set-ups stay within setupBudget; the last daemon serves the window.
	var setups []float64
	var spent time.Duration
	for len(setups) < o.sz.setups && (len(setups) < 3 || spent < setupBudget) {
		if p != nil {
			p.close()
		}
		var err error
		if p, err = startPhase(ctx, o, wl, false); err != nil {
			return result{}, err
		}
		spent += p.setup
		setups = append(setups, p.setup.Seconds())
	}

	stopRSS := make(chan struct{})
	type rss struct {
		peak float64
		n    int
	}
	rssc := make(chan rss, 1)
	go func() {
		peak, n := p.d.sampleRSS(stopRSS)
		rssc <- rss{peak, n}
	}()
	cpu0, err := p.d.cpuSeconds()
	if err != nil {
		return result{}, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	win := p.window(ctx, wl, func(_, _ int) bool { return time.Now().Before(deadline) })
	cpu1, err := p.d.cpuSeconds()
	if err != nil {
		return result{}, err
	}
	close(stopRSS)
	peak := <-rssc
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	s, err := wl.summarize(win)
	if err != nil {
		return result{}, err
	}
	for _, w := range s.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG:", w)
	}

	setupQ := tail(setups, 0.5)
	cpuPerOp := 0.0
	if s.ops > 0 {
		cpuPerOp = (cpu1 - cpu0) * 1e3 / float64(s.ops)
	}
	named := append([]metric{
		{"setup_s", setupQ.Value, "s", fmt.Sprintf("median of n=%d set-ups", len(setups))},
		{"peak_rss_mb", peak.peak, "MiB", fmt.Sprintf("max of n=%d daemon RSS samples", peak.n)},
		{"daemon_cpu_ms_per_op", cpuPerOp, "ms", fmt.Sprintf("%.2f daemon CPU seconds over n=%d operations", cpu1-cpu0, s.ops)},
	}, s.named...)
	for _, m := range named {
		printMetric(out, m)
	}
	set := metricSet{}
	set.put("setup_s", setupQ.Value, named[0].note)
	set.put("peak_rss_mb", peak.peak, named[1].note)
	set.put("daemon_cpu_ms_per_op", cpuPerOp, named[2].note)
	set.put("throughput_per_s", s.throughput, "= "+s.throughputIs)
	set.put("latency_p50_ms", s.p50.value, "= "+s.p50.name)
	res := result{Correct: len(s.wrong) == 0, Attempted: s.attempted, Failed: s.failed}
	fmt.Fprintln(out, "# generic end-to-end names, as BENCHMARK.json declares them:")
	return res, emit(out, endToEnd, set, &res)
}

func runTraced(ctx context.Context, o options, wl workload, out io.Writer) (result, error) {
	plan := wl.plan(o.seconds)
	more := func(c, k int) bool { return k < plan[c] }

	// The same fixed plan, untraced then traced, prices the tracing.
	p, err := startPhase(ctx, o, wl, false)
	if err != nil {
		return result{}, err
	}
	base, err := wl.summarize(p.window(ctx, wl, more))
	p.close()
	if err != nil {
		return result{}, err
	}

	if p, err = startPhase(ctx, o, wl, true); err != nil {
		return result{}, err
	}
	defer p.close()
	rec := newRecorder(0)
	for _, cl := range p.cls {
		cl.rec = rec
	}
	obs, err := observe(ctx, p.d, func() measured { return p.window(ctx, wl, more) })
	if err != nil {
		return result{}, err
	}
	s, err := wl.summarize(obs.window)
	if err != nil {
		return result{}, err
	}
	daemonSpans, err := p.d.spans()
	if err != nil {
		return result{}, err
	}
	p.close()
	spans := append(rec.snapshot(), daemonSpans...)
	if err := saveTrace(filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed)), spans); err != nil {
		return result{}, err
	}

	set := metricSet{}
	spanLayers(spans, obs.window.start.UnixNano(), set)
	obs.layers(s, set)
	ratio := 0.0
	if base.throughput > 0 {
		ratio = s.throughput / base.throughput
	}
	set.put("trace.overhead_ratio", ratio, fmt.Sprintf("traced %.6g / untraced %.6g per s on the same %v-operation plan", s.throughput, base.throughput, plan))
	values, err := replay(wl.replayInputs())
	if err != nil {
		return result{}, err
	}
	for name, v := range values {
		set.put(name, v, "single-threaded replay of this workload's inputs")
	}

	for _, w := range append(base.wrong, s.wrong...) {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG:", w)
	}
	for _, m := range s.named {
		printMetric(out, m)
	}
	res := result{
		Correct:   len(base.wrong)+len(s.wrong) == 0,
		Attempted: base.attempted + s.attempted,
		Failed:    base.failed + s.failed,
	}
	return res, emit(out, perLayer, set, &res)
}

// saveTrace writes the run's spans as JSON lines.
func saveTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = writeSpans(json.NewEncoder(w), spans)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
