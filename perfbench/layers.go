package main

import (
	"context"
	"fmt"
	"time"
)

// observation is what the traced phase reads from the daemon around its
// window: /metrics before and after, runtime counters before and after,
// and pool gauges sampled during it.
type observation struct {
	window            measured
	before, after     map[string]float64
	rtBefore, rtAfter runtimeStats
	active, queued    []float64
}

// poolSampleEvery is the /metrics gauge sampling period.
const poolSampleEvery = 50 * time.Millisecond

func observe(ctx context.Context, d *daemon, window func() measured) (*observation, error) {
	o := &observation{}
	var err error
	if o.before, err = d.scrape(); err != nil {
		return nil, err
	}
	if o.rtBefore, err = d.runtimeStats(); err != nil {
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(poolSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if m, err := d.scrape(); err == nil {
					o.active = append(o.active, m["yapserve_pool_active"])
					o.queued = append(o.queued, m["yapserve_pool_queued"])
				}
			}
		}
	}()
	o.window = window()
	close(stop)
	<-done
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.after, err = d.scrape(); err != nil {
		return nil, err
	}
	if o.rtAfter, err = d.runtimeStats(); err != nil {
		return nil, err
	}
	return o, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// layers derives the counter, gauge and runtime metrics of the window.
func (o *observation) layers(s summary, set metricSet) {
	delta := func(name string) float64 { return o.after[name] - o.before[name] }
	const fromMetrics = "/metrics delta over the traced window"
	sampled := fmt.Sprintf("mean of n=%d /metrics samples", len(o.active))
	set.put("service.pool.active_mean", mean(o.active), sampled)
	set.put("service.pool.queued_mean", mean(o.queued), sampled)
	set.put("service.shed_total", delta("yapserve_shed_total"), fromMetrics)

	hits, misses := delta("yapserve_cache_hits_total"), delta("yapserve_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	set.put("fleetcache.hit_ratio", ratio, fmt.Sprintf("%.0f hits of %.0f lookups", hits, hits+misses))
	set.put("fleetcache.computes", delta("yapserve_fleetcache_computes_total"), fromMetrics)
	set.put("fleetcache.coalesced", delta("yapserve_fleetcache_coalesced_total"), fromMetrics)
	set.put("fleetcache.evictions", delta("yapserve_cache_evictions_total"), fromMetrics)

	done := delta("yapserve_jobs_done_total")
	perJob := func(x float64) float64 {
		if done == 0 {
			return 0
		}
		return x / done
	}
	jobNote := fmt.Sprintf("%s, over %.0f jobs", fromMetrics, done)
	set.put("jobs.checkpoints_per_job", perJob(delta("yapserve_jobs_checkpoints_total")), jobNote)
	set.put("jobs.wal_records_per_job", perJob(delta("yapserve_jobs_wal_records_total")), jobNote)
	used, saved := 0, 0
	for _, j := range s.jobs {
		used += j.Completed
		if j.StoppedEarly {
			saved += j.Samples - j.Completed
		}
	}
	convNote := fmt.Sprintf("summed over n=%d jobs", len(s.jobs))
	set.put("converge.samples_used", float64(used), convNote)
	set.put("converge.samples_saved", float64(saved), convNote)

	perOp := 0.0
	if s.ops > 0 {
		perOp = float64(o.rtAfter.TotalAlloc-o.rtBefore.TotalAlloc) / float64(s.ops)
	}
	set.put("runtime.alloc_bytes_per_op", perOp, fmt.Sprintf("daemon heap bytes over n=%d operations", s.ops))
	set.put("runtime.gc_cycles", float64(o.rtAfter.NumGC-o.rtBefore.NumGC), "daemon GC cycles in the traced window")
	set.put("runtime.gc_pause_ms", float64(o.rtAfter.PauseTotalNs-o.rtBefore.PauseTotalNs)/1e6, "daemon GC pause in the traced window")
}

// spanLayers derives the span metrics of the spans that started in the
// window.
func spanLayers(all []span, from int64, set metricSet) {
	var spans []span
	byID := map[uint64]span{}
	children := map[uint64][]span{}
	for _, s := range all {
		if s.Start < from {
			continue
		}
		spans = append(spans, s)
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var transport, evalH, batchH, simW2W, simD2W, slices, submits []float64
	var jobSpans, submitSpans, sliceSpans []span
	for _, s := range spans {
		switch s.Name {
		case "client.evaluate":
			if kids := children[s.ID]; len(kids) > 0 {
				transport = append(transport, us(selfTime(s, kids)))
			}
		case "server.evaluate":
			evalH = append(evalH, us(s.dur()))
		case "server.batch":
			batchH = append(batchH, ms(s.dur()))
		case "server.simulate":
			switch byID[s.Parent].Name {
			case "client.simulate.w2w":
				simW2W = append(simW2W, ms(s.dur()))
			case "client.simulate.d2w":
				simD2W = append(simD2W, ms(s.dur()))
			}
		case "server.jobs.submit":
			submits = append(submits, ms(s.dur()))
		case "jobs.slice":
			slices = append(slices, ms(s.dur()))
			sliceSpans = append(sliceSpans, s)
		case "client.job":
			jobSpans = append(jobSpans, s)
		case "client.jobs.submit":
			submitSpans = append(submitSpans, s)
		}
	}
	set.putQuantile("transport.evaluate_p50_us", tail(transport, 0.5))
	set.putQuantile("service.evaluate.handler_p50_us", tail(evalH, 0.5))
	set.putQuantile("service.evaluate.handler_p99_us", tail(evalH, 0.99))
	set.putQuantile("service.batch.handler_p50_ms", tail(batchH, 0.5))
	set.putQuantile("service.simulate.handler_w2w_p50_ms", tail(simW2W, 0.5))
	set.putQuantile("service.simulate.handler_d2w_p50_ms", tail(simD2W, 0.5))
	set.putQuantile("sim.slice_p50_ms", tail(slices, 0.5))
	set.putQuantile("jobs.submit_p50_ms", tail(submits, 0.5))

	// Jobs run one at a time, so a job's submit and slices are the spans
	// its client span encloses.
	within := func(outer, inner span) bool { return inner.Start >= outer.Start && inner.End <= outer.End }
	var waits, overheads []float64
	for _, j := range jobSpans {
		var accepted int64 // when the daemon answered the submit
		for _, c := range submitSpans {
			if within(j, c) {
				for _, k := range children[c.ID] {
					accepted = k.End
				}
			}
		}
		var first int64
		var sliced time.Duration
		for _, sl := range sliceSpans {
			if within(j, sl) {
				if first == 0 || sl.Start < first {
					first = sl.Start
				}
				sliced += sl.dur()
			}
		}
		if accepted == 0 || first == 0 {
			continue
		}
		wait := time.Duration(first - accepted)
		waits = append(waits, ms(wait))
		overheads = append(overheads, ms(j.dur()-wait-sliced))
	}
	set.putQuantile("jobs.queue_wait_p50_ms", tail(waits, 0.5))
	set.putQuantile("jobs.overhead_p50_ms", tail(overheads, 0.5))
}
