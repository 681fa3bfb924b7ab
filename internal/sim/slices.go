package sim

import (
	"context"
	"fmt"
	"time"

	"yap/internal/converge"
)

// SliceDriver runs one Monte-Carlo run as a sequence of contiguous sample
// slices and folds them with Merge. It leans on the sharding property of
// Options.FirstSample — sample k always draws from stream
// Derive(Seed, FirstSample+k) — so the accumulator after any slice
// boundary is bit-identical to a fixed-N run of that many samples, however
// the slices were executed. Sim early stop (Options.EarlyStop) and durable
// jobs (internal/jobs) are both this driver with different pieces.
type SliceDriver struct {
	// Mode is "w2w" or "d2w".
	Mode string
	// Opts describes the whole run. Each slice runs with FirstSample
	// advanced by the samples already done, Wafers and Dies set to the
	// slice size and EarlyStop cleared.
	Opts Options
	// Total is the run's sample cap.
	Total int
	// Base is the accumulated prefix of a resumed run: a Result covering
	// samples [0, Base.Completed) with Requested == Completed. The zero
	// Result starts a fresh run.
	Base Result
	// Next returns the end of the slice that starts after done samples; it
	// must return a value in (done, Total].
	Next func(done int) int
	// Run executes one slice; Run (the package function) is the local
	// engine.
	Run func(ctx context.Context, mode string, opts Options) (Result, error)
	// After, when set, is called with the accumulator after each slice is
	// merged; an error from it ends the run with that error.
	After func(acc Result) error
	// Stop is the sequential-stopping rule, consulted after each slice and
	// on a non-empty Base before the first one. The zero Rule never stops.
	Stop converge.Rule
}

// Drive runs the remaining slices until the accumulator reaches Total,
// Stop fires, a slice comes back partial, or an error occurs. The
// returned Result always describes the whole run: Requested is Total,
// StoppedEarly reports a stop by the rule and Partial a run that ended
// short of both Total and a stop. On error it holds the slices merged
// before the failing step.
func (d SliceDriver) Drive(ctx context.Context) (Result, error) {
	acc, err := Merge(d.Base) // derives the yields of a durable prefix
	if err != nil {
		return Result{}, err
	}
	stopped := d.stops(acc)
	for !stopped && acc.Completed < d.Total {
		done := acc.Completed
		n := d.Next(done) - done
		opts := d.Opts
		opts.FirstSample += done
		opts.Wafers, opts.Dies = n, n // each engine reads only its own count
		opts.EarlyStop = converge.Rule{}
		res, err := d.Run(ctx, d.Mode, opts)
		if err != nil {
			return d.finish(acc, false), err
		}
		if done == 0 {
			acc = res
		} else if acc, err = Merge(acc, res); err != nil {
			return d.finish(acc, false), fmt.Errorf("merging slice at sample %d: %w", done, err)
		}
		if res.Partial {
			break // mid-slice cancellation: the merged prefix is partial
		}
		if d.After != nil {
			if err := d.After(acc); err != nil {
				return d.finish(acc, false), err
			}
		}
		stopped = d.stops(acc)
	}
	return d.finish(acc, stopped), nil
}

// stops reports whether the rule ends the run at accumulator acc.
func (d SliceDriver) stops(acc Result) bool {
	return acc.Completed < d.Total &&
		d.Stop.ShouldStop(acc.Completed, converge.EstimateOf(acc.Counts.Survived, acc.Counts.Dies))
}

// finish rewrites the accumulator into the Result of the whole run.
func (d SliceDriver) finish(acc Result, stopped bool) Result {
	acc.Requested = d.Total
	acc.StoppedEarly = stopped
	acc.Partial = !stopped && acc.Completed < d.Total
	return acc
}

// runEarlyStop executes a run under Options.EarlyStop: the slice driver
// with the slice boundaries on the rule's checkpoint ladder. Those
// boundaries depend only on (rule, total), so the stop index — and with it
// the whole Result — is the same at any Workers value. A context that
// fires after at least one finished slice returns the finished prefix as a
// partial Result with nil error, the same graceful degradation the
// fixed-N path offers.
//
// total is the run's hard sample cap (the resolved Wafers/Dies default).
func runEarlyStop(ctx context.Context, mode string, opts Options, total int) (res Result, err error) {
	defer func(start time.Time) { res.Elapsed = time.Since(start) }(time.Now()) //yaplint:allow determinism Result.Elapsed is telemetry only; it never feeds the sampled streams

	rule := opts.EarlyStop
	res, err = SliceDriver{
		Mode:  mode,
		Opts:  opts,
		Total: total,
		Next:  func(done int) int { return rule.NextCheckpoint(done, total) },
		Run:   Run,
		Stop:  rule,
	}.Drive(ctx)
	if err != nil && (res.Completed == 0 || ctx.Err() == nil) {
		return Result{}, err
	}
	return res, nil
}
