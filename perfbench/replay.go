package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"yap/internal/core"
	"yap/internal/fleetcache"
	"yap/internal/service"
	"yap/internal/sim"
)

// The layer replay runs a workload's own generated inputs through the
// public functions of core, fleetcache and sim on one goroutine, after a
// warm-up pass, reading allocations from runtime.MemStats deltas.

// replayInputs is the slice of a workload's inputs the replay uses.
type replayInputs struct {
	bodies     []json.RawMessage // request parameter bodies
	evalPoints []json.RawMessage // the points evaluated analytically
	sim, sim8  json.RawMessage   // a uniform-die and an 8-region input for the kernels
}

// replayEvalPoints bounds the analytic replay: an 8-region D2W evaluation
// costs tens of milliseconds.
const replayEvalPoints = 16

func newReplayInputs(bodies []json.RawMessage) replayInputs {
	in := replayInputs{bodies: bodies}
	for _, raw := range bodies {
		p, _, err := resolve(raw)
		if err != nil {
			continue
		}
		switch {
		case p.PadLayout == nil && in.sim == nil:
			in.sim = raw
		case p.PadLayout != nil && len(p.PadLayout.Regions) == 8 && in.sim8 == nil:
			in.sim8 = raw
		}
		if len(in.evalPoints) < replayEvalPoints {
			in.evalPoints = append(in.evalPoints, raw)
		}
	}
	return in
}

// perOp times rounds of fn (each doing n operations) until at least five
// rounds and minTotal have passed, and reports the median nanoseconds per
// operation.
func perOp(n int, minTotal time.Duration, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm-up pass
		return 0, err
	}
	var rounds []float64
	var total time.Duration
	for len(rounds) < 5 || total < minTotal {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		total += d
		rounds = append(rounds, float64(d)/float64(n))
	}
	return median(rounds), nil
}

// mallocs reports the heap allocations fn makes.
func mallocs(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

type layerValues map[string]float64

// replay measures the core, fleetcache, service-encode and sim layer
// metrics on the inputs.
func replay(in replayInputs) (layerValues, error) {
	v := layerValues{}
	if err := replayCore(in, v); err != nil {
		return nil, fmt.Errorf("core replay: %w", err)
	}
	if err := replaySim(in, v); err != nil {
		return nil, fmt.Errorf("sim replay: %w", err)
	}
	return v, nil
}

func replayCore(in replayInputs, v layerValues) error {
	const minTotal = 50 * time.Millisecond
	base := core.Baseline()
	resolved := make([]core.Params, len(in.bodies))
	d, err := perOp(len(in.bodies), minTotal, func() error {
		for i, raw := range in.bodies {
			p, err := core.DecodeParams(base, bytes.NewReader(raw))
			if err != nil {
				return err
			}
			resolved[i] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["core.decode_params_us"] = d / 1e3
	var sink uint64
	d, _ = perOp(len(resolved), minTotal, func() error {
		for _, p := range resolved {
			sink ^= p.CanonicalHash()
		}
		return nil
	})
	v["core.canonical_hash_ns"] = d
	_ = sink

	points := make([]core.Params, len(in.evalPoints))
	for i, raw := range in.evalPoints {
		if points[i], _, err = resolve(raw); err != nil {
			return err
		}
	}
	w2w := make([]core.Breakdown, len(points))
	d2w := make([]core.Breakdown, len(points))
	d, err = perOp(len(points), minTotal, func() error {
		for i, p := range points {
			if w2w[i], err = p.EvaluateW2W(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["core.evaluate_w2w_us"] = d / 1e3
	// D2W evaluations are slow enough that two timed passes suffice.
	d, err = perOp(len(points), 0, func() error {
		for i, p := range points {
			if d2w[i], err = p.EvaluateD2W(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["core.evaluate_d2w_ms"] = d / 1e6
	allocs, err := mallocs(func() error {
		for _, p := range points {
			if _, err := p.EvaluateW2W(); err != nil {
				return err
			}
			if _, err := p.EvaluateD2W(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["core.evaluate_allocs_per_point"] = float64(allocs) / float64(len(points))

	// The daemon's response encoding: indented JSON of an evaluate answer.
	resps := make([]service.EvaluateResponse, len(points))
	for i, p := range points {
		resps[i] = service.EvaluateResponse{ParamsHash: p.HashString(), Cached: true,
			W2W: wireBreakdown(w2w[i]), D2W: wireBreakdown(d2w[i])}
	}
	d, err = perOp(len(resps), minTotal, func() error {
		for i := range resps {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(resps[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["service.evaluate.encode_us"] = d / 1e3

	ctx := context.Background()
	hashes := make([]uint64, len(points))
	cache := fleetcache.New(fleetcache.Config{CacheSize: cacheEntries})
	defer cache.Close()
	for i, p := range points {
		hashes[i] = p.CanonicalHash()
		cache.Adopt(fleetcache.ModeW2W, hashes[i], p, w2w[i])
		cache.Adopt(fleetcache.ModeD2W, hashes[i], p, d2w[i])
	}
	d, err = perOp(2*len(points), minTotal, func() error {
		for i, p := range points {
			for _, mode := range []string{fleetcache.ModeW2W, fleetcache.ModeD2W} {
				if _, out, err := cache.Evaluate(ctx, mode, hashes[i], p); err != nil || out != fleetcache.OutcomeLocalHit {
					return fmt.Errorf("replay cache lookup: outcome %v, err %v", out, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["fleetcache.hit_ns"] = d

	// Miss overhead: a cold Cache.Evaluate minus the direct engine call,
	// W2W only (the cheaper engine leaves less noise); the fastest of five
	// interleaved tries of each, median over points.
	overheads := make([]float64, len(points))
	for i, p := range points {
		direct, miss := time.Duration(1<<62), time.Duration(1<<62)
		for try := 0; try < 5; try++ {
			start := time.Now()
			if _, err := p.EvaluateW2W(); err != nil {
				return err
			}
			direct = min(direct, time.Since(start))
			cold := fleetcache.New(fleetcache.Config{CacheSize: cacheEntries})
			start = time.Now()
			_, _, err := cold.Evaluate(ctx, fleetcache.ModeW2W, hashes[i], p)
			miss = min(miss, time.Since(start))
			cold.Close()
			if err != nil {
				return err
			}
		}
		overheads[i] = float64(miss-direct) / 1e3
	}
	v["fleetcache.miss_overhead_us"] = median(overheads)
	return nil
}

func wireBreakdown(b core.Breakdown) *service.Breakdown {
	return &service.Breakdown{Overlay: b.Overlay, Recess: b.Recess, Defect: b.Defect, Total: b.Total}
}

// kernelCost times single-worker runs of n1 and n2 samples (median of
// seven each) and reports the n1-sample run time and the marginal time
// per sample, both in nanoseconds, and the marginal allocations per
// sample.
func kernelCost(mode string, raw json.RawMessage, n1, n2 int) (fixed, perSample, allocs float64, err error) {
	p, _, err := resolve(raw)
	if err != nil {
		return 0, 0, 0, err
	}
	run := func(n int) error {
		opts := sim.Options{Params: p, Seed: 1, Workers: 1}
		var err error
		if mode == "d2w" {
			opts.Dies = n
			_, err = sim.RunD2WContext(context.Background(), opts)
		} else {
			opts.Wafers = n
			_, err = sim.RunW2WContext(context.Background(), opts)
		}
		return err
	}
	timeRuns := func(n int) (float64, error) {
		if err := run(n); err != nil { // warm-up
			return 0, err
		}
		ds := make([]float64, 7)
		for i := range ds {
			start := time.Now()
			if err := run(n); err != nil {
				return 0, err
			}
			ds[i] = float64(time.Since(start))
		}
		return median(ds), nil
	}
	t1, err := timeRuns(n1)
	if err != nil {
		return 0, 0, 0, err
	}
	t2, err := timeRuns(n2)
	if err != nil {
		return 0, 0, 0, err
	}
	m1, err := mallocs(func() error { return run(n1) })
	if err != nil {
		return 0, 0, 0, err
	}
	m2, err := mallocs(func() error { return run(n2) })
	if err != nil {
		return 0, 0, 0, err
	}
	n := float64(n2 - n1)
	return t1, (t2 - t1) / n, (float64(m2) - float64(m1)) / n, nil
}

func replaySim(in replayInputs, v layerValues) error {
	if in.sim == nil || in.sim8 == nil {
		return fmt.Errorf("workload inputs lack a uniform-die or an 8-region point")
	}
	fixed, perWafer, allocs, err := kernelCost("w2w", in.sim, 1, 41)
	if err != nil {
		return err
	}
	v["sim.w2w.run_fixed_us"] = fixed / 1e3
	v["sim.w2w.per_wafer_us"] = perWafer / 1e3
	v["sim.w2w.allocs_per_wafer"] = allocs
	if _, perWafer, _, err = kernelCost("w2w", in.sim8, 1, 41); err != nil {
		return err
	}
	v["sim.w2w.per_wafer_8region_us"] = perWafer / 1e3
	_, perDie, allocs, err := kernelCost("d2w", in.sim, 1000, 5000)
	if err != nil {
		return err
	}
	v["sim.d2w.per_die_ns"] = perDie
	v["sim.d2w.allocs_per_die"] = allocs
	if _, perDie, _, err = kernelCost("d2w", in.sim8, 1000, 5000); err != nil {
		return err
	}
	v["sim.d2w.per_die_8region_ns"] = perDie
	return nil
}
