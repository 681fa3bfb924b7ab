package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"yap/internal/randx"
)

// Run is the mode-keyed entry point to the simulator: mode "w2w" runs the
// W2W engine, "d2w" the D2W one (RunW2WContext and RunD2WContext are Run
// with the mode fixed). Its signature is jobs.RunFunc's, so it is also the
// default slice engine of durable jobs and of the slice driver.
//
// A run with Options.EarlyStop armed goes through the slice driver; every
// other run is one pass of the shared worker pool over samples
// [FirstSample, FirstSample+Samples(mode)).
func Run(ctx context.Context, mode string, opts Options) (Result, error) {
	if opts.FirstSample < 0 {
		return Result{}, fmt.Errorf("sim: negative FirstSample %d", opts.FirstSample)
	}
	var newKernel func(Options) (kernel, error)
	switch mode {
	case "w2w":
		newKernel = newW2WKernel
	case "d2w":
		newKernel = newD2WKernel
	default:
		return Result{}, fmt.Errorf("sim: unknown mode %q (want w2w or d2w)", mode)
	}
	n := opts.Samples(mode)
	if opts.EarlyStop.Enabled() {
		return runEarlyStop(ctx, mode, opts, n)
	}
	k, err := newKernel(opts)
	if err != nil {
		return Result{}, err
	}
	return runPool(ctx, opts, n, k)
}

// Samples resolves the sample count of a run in mode: Dies for "d2w",
// Wafers otherwise, with the paper defaults (1000 wafers, 20000 dies)
// standing in for a count that is not positive.
func (o Options) Samples(mode string) int {
	if mode == "d2w" {
		if o.Dies > 0 {
			return o.Dies
		}
		return 20000
	}
	if o.Wafers > 0 {
		return o.Wafers
	}
	return 1000
}

// kernel is everything that tells the two Monte-Carlo engines apart to the
// shared worker pool.
type kernel struct {
	// mode is Result.Mode ("W2W" or "D2W"); unit names one sample in
	// errors ("wafer" or "die").
	mode, unit string
	// hook is the fault-injection hook fired once per stride samples of a
	// worker, right after the same stride's cancellation check.
	hook   string
	stride int
	// sites is the number of per-die-site tallies to collect into
	// Result.PerDie; 0 collects none.
	sites int
	// sample simulates one sample drawn from rng, adding per-site outcomes
	// into perDie when it is non-nil.
	sample func(rng *randx.Source, perDie []Counts) Counts
}

// runPool is the simulator's one worker pool: it runs samples
// [opts.FirstSample, opts.FirstSample+n) of k across opts.Workers
// goroutines, worker w taking samples w, w+workers, … Each sample draws
// from its own stream Derive(Seed, FirstSample+index), so the tallies do
// not depend on the worker count or on scheduling.
//
// Workers check ctx between samples (every k.stride samples) and keep
// their tallies per completed sample, so a context that fires mid-run
// stops the pool promptly and the completed samples come back as a
// partial Result (Partial set, Completed < Requested) with nil error. A
// run that completes no sample returns the context's error instead. An
// injected fault or a panicking sample aborts every worker and returns an
// error: the panic costs the run, not the process.
func runPool(ctx context.Context, opts Options, n int, k kernel) (res Result, err error) {
	defer func(start time.Time) { res.Elapsed = time.Since(start) }(time.Now()) //yaplint:allow determinism Result.Elapsed is telemetry only; it never feeds the sampled streams

	workers := min(opts.workers(), n)
	type tally struct {
		counts    Counts
		perDie    []Counts
		completed int
	}
	// Workers share a derived context so an injected fault in one aborts
	// the siblings promptly; the parent ctx still decides partial-vs-full.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	done := runCtx.Done()
	faultErrs := make(chan error, workers)
	results := make(chan tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var out tally
			if k.sites > 0 {
				out.perDie = make([]Counts, k.sites)
			}
			defer func() {
				if rec := recover(); rec != nil {
					faultErrs <- fmt.Errorf("sim: %s %s worker panicked: %v", k.mode, k.unit, rec)
					stop()
				}
				results <- out
			}()
			for i, steps := worker, 0; i < n; i, steps = i+workers, steps+1 {
				if steps%k.stride == 0 {
					select {
					case <-done:
						return
					default:
					}
					if err := opts.Faults.Fire(runCtx, k.hook); err != nil {
						if runCtx.Err() == nil { // a real fault, not cancellation
							faultErrs <- fmt.Errorf("sim: %s %s aborted: %w", k.mode, k.unit, err)
							stop()
						}
						return
					}
				}
				out.counts.Add(k.sample(randx.Derive(opts.Seed, uint64(opts.FirstSample)+uint64(i)), out.perDie))
				out.completed++
			}
		}(w)
	}
	wg.Wait()
	close(results)

	var total Counts
	var perDie []Counts
	if k.sites > 0 {
		perDie = make([]Counts, k.sites)
	}
	completed := 0
	for out := range results {
		total.Add(out.counts)
		completed += out.completed
		for i := range out.perDie {
			perDie[i].Add(out.perDie[i])
		}
	}
	select {
	case err := <-faultErrs:
		return Result{}, err
	default:
	}
	res = resultFrom(k.mode, total, 0)
	res.Completed, res.Requested, res.PerDie = completed, n, perDie
	if err := ctx.Err(); err != nil && completed < n {
		if completed == 0 {
			return Result{}, fmt.Errorf("sim: %s run aborted before any %s completed: %w", k.mode, k.unit, err)
		}
		res.Partial = true
	}
	return res, nil
}
