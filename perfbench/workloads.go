package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/service"
	"yap/internal/sim"
)

// opTimeout bounds one client operation; a hung request fails instead of
// stalling the run.
const opTimeout = 60 * time.Second

// benchClient is one closed-loop client: internal/client with retries
// off, plus the span recorder when the phase is traced.
type benchClient struct {
	id  int
	api *client.Client
	rec *recorder
	seq int
}

// call times fn as one client operation named name.
func (b *benchClient) call(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, error) {
	b.seq++
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return traced(ctx, b.rec, fmt.Sprintf("c%d-%d", b.id, b.seq), "client."+name, fn)
}

// workload is one seeded traffic mix. A phase calls reset, warm on both
// clients, run on both clients until more says stop, then summarize.
type workload interface {
	reset()
	warm(ctx context.Context, cl *benchClient) error
	run(ctx context.Context, cl *benchClient, more func(k int) bool)
	summarize(m measured) (summary, error)
	// plan is the per-client operation count of a traced invocation's
	// fixed-size phases, for a run of the given length.
	plan(seconds int) [2]int
	replayInputs() replayInputs
	workingSet() string
}

// summary is one phase's checked outcome.
type summary struct {
	attempted, failed int
	wrong             []string // descriptions of wrong answers
	ops               int      // operations completed (the per-op runtime base)
	named             []metric // the end-to-end metrics under their workload names
	throughput        float64  // the workload's primary throughput, per second
	throughputIs      string   // how throughput maps onto the named metrics
	p50, tail         metric   // the workload's primary latency, ms
	jobs              []*service.JobStreamEvent
}

func (s *summary) fail(format string, args ...any) {
	s.wrong = append(s.wrong, fmt.Sprintf(format, args...))
}

func (s *summary) errorRatio() metric {
	ratio := 0.0
	if s.attempted > 0 {
		ratio = float64(s.failed) / float64(s.attempted)
	}
	return metric{"error_ratio", ratio, "ratio", fmt.Sprintf("%d of %d operations failed", s.failed, s.attempted)}
}

func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "eval-hot":
		return newEvalHot(seed, sz), nil
	case "sweep-cold":
		return &sweepCold{seed: seed, sz: sz}, nil
	case "montecarlo":
		return &monteCarlo{seed: seed, sz: sz, sims: simInputs(seed), jobs: jobInputs(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want eval-hot, sweep-cold or montecarlo)", name)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed is the part of every operation record the summaries share.
type timed struct {
	lat time.Duration
	err error
	end time.Time
}

func finished(lat time.Duration, err error) timed { return timed{lat, err, time.Now()} }

// windowSlices splits a measured window for per-slice medians: a burst of
// interference from outside the benchmark moves one slice, not the median.
const windowSlices = 5

// measured is a phase's timed window.
type measured struct {
	start   time.Time
	elapsed time.Duration
}

// slice is the window slice an operation ending at t falls in; operations
// that ran past the deadline belong to the last one.
func (m measured) slice(t time.Time) int {
	i := int(int64(windowSlices) * int64(t.Sub(m.start)) / int64(m.elapsed))
	return min(max(i, 0), windowSlices-1)
}

func (m measured) sliceSeconds() float64 { return m.elapsed.Seconds() / windowSlices }

// latencyMetrics reports the median over slices of each slice's p50 and,
// over the whole window, the tail percentile want, in milliseconds.
func latencyMetrics(m measured, recs []timed, p50Name, tailName string, want float64) (p50, tl metric) {
	var all []float64
	var perSlice [windowSlices][]float64
	for _, r := range recs {
		if r.err == nil {
			all = append(all, ms(r.lat))
			perSlice[m.slice(r.end)] = append(perSlice[m.slice(r.end)], ms(r.lat))
		}
	}
	var p50s []float64
	for _, xs := range perSlice {
		if len(xs) > 0 {
			p50s = append(p50s, median(xs))
		}
	}
	q := tail(all, want)
	p50 = metric{p50Name, median(p50s), "ms", fmt.Sprintf("median of %d per-slice p50s, n=%d", len(p50s), len(all))}
	return p50, metric{tailName, q.Value, "ms", q.String()}
}

func sameBreakdown(got *service.Breakdown, want core.Breakdown) bool {
	return got != nil &&
		math.Float64bits(got.Overlay) == math.Float64bits(want.Overlay) &&
		math.Float64bits(got.Recess) == math.Float64bits(want.Recess) &&
		math.Float64bits(got.Defect) == math.Float64bits(want.Defect) &&
		math.Float64bits(got.Total) == math.Float64bits(want.Total)
}

// reference is a point's locally computed expectation.
type reference struct {
	hash     string
	w2w, d2w core.Breakdown
}

func computeReference(raw json.RawMessage) (reference, error) {
	p, hash, err := resolve(raw)
	if err != nil {
		return reference{}, err
	}
	ref := reference{hash: hash}
	if ref.w2w, err = p.EvaluateW2W(); err == nil {
		ref.d2w, err = p.EvaluateD2W()
	}
	return ref, err
}

// parallel runs fn(i) for i in [0, n) on two goroutines, the machine's
// core count, and returns the errors joined.
func parallel(n int, fn func(i int) error) error {
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// errWrong marks an answer that disagrees with its reference.
var errWrong = errors.New("wrong answer")

// ---------------------------------------------------------------- eval-hot

// evalHot sends /v1/evaluate (mode both) over a warmed working set, so
// every timed request is a local cache hit.
type evalHot struct {
	seed   uint64
	points []json.RawMessage
	refs   []reference
	refErr error
	recs   [2][]timed
}

func newEvalHot(seed uint64, sz sizes) *evalHot {
	w := &evalHot{seed: seed, points: hotWorkingSet(seed, sz.hotPoints)}
	w.refs = make([]reference, len(w.points))
	// References are computed before any daemon starts, outside every
	// timed window.
	w.refErr = parallel(len(w.points), func(i int) error {
		var err error
		w.refs[i], err = computeReference(w.points[i])
		return err
	})
	return w
}

func (w *evalHot) reset() { w.recs = [2][]timed{} }

func (w *evalHot) workingSet() string {
	return fmt.Sprintf("%d points x 2 modes = %d entries; LRU capacity %d", len(w.points), 2*len(w.points), cacheEntries)
}

// evaluate sends point i and checks the answer against its reference.
func (w *evalHot) evaluate(ctx context.Context, cl *benchClient, i int) timed {
	var resp *service.EvaluateResponse
	lat, err := cl.call(ctx, "evaluate", func(ctx context.Context) error {
		var err error
		resp, err = cl.api.Evaluate(ctx, service.EvaluateRequest{Mode: "both", Params: w.points[i]})
		return err
	})
	if ref := w.refs[i]; err == nil &&
		(resp.ParamsHash != ref.hash || !sameBreakdown(resp.W2W, ref.w2w) || !sameBreakdown(resp.D2W, ref.d2w)) {
		err = fmt.Errorf("%w: point %d answered hash %s w2w %+v d2w %+v, want hash %s w2w %+v d2w %+v",
			errWrong, i, resp.ParamsHash, resp.W2W, resp.D2W, ref.hash, ref.w2w, ref.d2w)
	}
	return finished(lat, err)
}

func (w *evalHot) warm(ctx context.Context, cl *benchClient) error {
	if w.refErr != nil {
		return fmt.Errorf("computing references: %w", w.refErr)
	}
	for i := cl.id; i < len(w.points); i += 2 {
		if r := w.evaluate(ctx, cl, i); r.err != nil {
			return fmt.Errorf("warming point %d: %w", i, r.err)
		}
	}
	return nil
}

func (w *evalHot) run(ctx context.Context, cl *benchClient, more func(k int) bool) {
	r := rng(w.seed, streamClient, uint64(cl.id))
	for k := 0; more(k); k++ {
		w.recs[cl.id] = append(w.recs[cl.id], w.evaluate(ctx, cl, r.IntN(len(w.points))))
	}
}

func (w *evalHot) summarize(m measured) (summary, error) {
	var s summary
	var all []timed
	var perSlice [windowSlices]float64
	for _, recs := range w.recs {
		for _, r := range recs {
			all = append(all, r)
			s.attempted++
			switch {
			case errors.Is(r.err, errWrong):
				s.fail("%v", r.err)
				s.failed++
			case r.err != nil:
				s.failed++
			default:
				s.ops++
				perSlice[m.slice(r.end)]++
			}
		}
	}
	for i := range perSlice {
		perSlice[i] /= m.sliceSeconds()
	}
	s.throughput, s.throughputIs = median(perSlice[:]), "evaluate_rps"
	s.p50, s.tail = latencyMetrics(m, all, "evaluate_p50_ms", "evaluate_p99_ms", 0.99)
	s.named = []metric{
		s.errorRatio(),
		{"evaluate_rps", s.throughput, "1/s", fmt.Sprintf("median of %d per-slice rates, n=%d requests in %.3f s", windowSlices, s.ops, m.elapsed.Seconds())},
		s.p50, s.tail,
	}
	return s, nil
}

func (w *evalHot) plan(seconds int) [2]int { return [2]int{1000 * seconds, 1000 * seconds} }

func (w *evalHot) replayInputs() replayInputs { return newReplayInputs(w.points) }

// -------------------------------------------------------------- sweep-cold

// sweepCold sends /v1/evaluate/batch (64 points, mode both) where every
// point of the run is distinct, so every evaluation misses the cache.
type sweepCold struct {
	seed uint64
	sz   sizes
	recs [2][]batchRec
}

type batchRec struct {
	timed
	batch int
	resp  *service.BatchEvaluateResponse
}

func (w *sweepCold) reset() { w.recs = [2][]batchRec{} }

func (w *sweepCold) workingSet() string {
	return fmt.Sprintf("every point distinct: 2 entries per point, %d per batch; LRU capacity %d", 2*w.sz.batchPoints, cacheEntries)
}

func (w *sweepCold) batchPoints(stream uint64, b int) []json.RawMessage {
	pts := make([]json.RawMessage, w.sz.batchPoints)
	for i := range pts {
		pts[i] = sweepPoint(w.seed, stream, b*w.sz.batchPoints+i)
	}
	return pts
}

func (w *sweepCold) send(ctx context.Context, cl *benchClient, pts []json.RawMessage) (*service.BatchEvaluateResponse, timed) {
	var resp *service.BatchEvaluateResponse
	lat, err := cl.call(ctx, "batch", func(ctx context.Context) error {
		var err error
		resp, err = cl.api.EvaluateBatch(ctx, service.BatchEvaluateRequest{Mode: "both", Points: pts})
		return err
	})
	if err == nil && resp.Failed > 0 {
		err = fmt.Errorf("partial batch: %d of %d points failed", resp.Failed, len(pts))
	}
	return resp, finished(lat, err)
}

// warm sends one batch per client from a point stream the timed phase
// never draws from: connections and code paths warm, the timed points
// stay cold.
func (w *sweepCold) warm(ctx context.Context, cl *benchClient) error {
	_, r := w.send(ctx, cl, w.batchPoints(streamSweepWarm, cl.id))
	return r.err
}

func (w *sweepCold) run(ctx context.Context, cl *benchClient, more func(k int) bool) {
	for k := 0; more(k); k++ {
		b := 2*k + cl.id
		resp, r := w.send(ctx, cl, w.batchPoints(streamSweep, b))
		w.recs[cl.id] = append(w.recs[cl.id], batchRec{r, b, resp})
	}
}

// summarize checks every answered point's hash against its locally
// resolved parameters and a seeded 1-in-16 sample of breakdowns bit for
// bit against a direct core call.
func (w *sweepCold) summarize(m measured) (summary, error) {
	var s summary
	type check struct {
		k   int
		raw json.RawMessage
		got service.SweepPoint
	}
	var checks []check
	var answered []*batchRec
	for c := range w.recs {
		for i := range w.recs[c] {
			r := &w.recs[c][i]
			s.attempted++
			if r.err != nil {
				s.failed++
				continue
			}
			pts := w.batchPoints(streamSweep, r.batch)
			if len(r.resp.Points) != len(pts) {
				r.err = fmt.Errorf("%w: batch %d answered %d points, want %d", errWrong, r.batch, len(r.resp.Points), len(pts))
				continue
			}
			answered = append(answered, r)
			for i, got := range r.resp.Points {
				checks = append(checks, check{r.batch*w.sz.batchPoints + i, pts[i], got})
			}
		}
	}
	bad := make([]error, len(checks))
	err := parallel(len(checks), func(i int) error {
		c := checks[i]
		if c.got.Index != c.k%w.sz.batchPoints {
			bad[i] = fmt.Errorf("point %d answered at index %d", c.k, c.got.Index)
			return nil
		}
		if !sampledForCheck(w.seed, c.k) {
			_, hash, err := resolve(c.raw)
			if err == nil && c.got.ParamsHash != hash {
				bad[i] = fmt.Errorf("point %d params_hash %s, want %s", c.k, c.got.ParamsHash, hash)
			}
			return err
		}
		ref, err := computeReference(c.raw)
		if err != nil {
			return err
		}
		if c.got.ParamsHash != ref.hash || !sameBreakdown(c.got.W2W, ref.w2w) || !sameBreakdown(c.got.D2W, ref.d2w) {
			bad[i] = fmt.Errorf("point %d answered hash %s w2w %+v d2w %+v, want hash %s w2w %+v d2w %+v",
				c.k, c.got.ParamsHash, c.got.W2W, c.got.D2W, ref.hash, ref.w2w, ref.d2w)
		}
		return nil
	})
	if err != nil {
		return s, fmt.Errorf("checking batch answers: %w", err)
	}
	byBatch := map[int]*batchRec{}
	for _, r := range answered {
		byBatch[r.batch] = r
	}
	for i, e := range bad {
		if r := byBatch[checks[i].k/w.sz.batchPoints]; e != nil && r.err == nil {
			r.err = fmt.Errorf("%w: %v", errWrong, e)
		}
	}

	var all []timed
	var perSlice [windowSlices]float64
	for _, recs := range w.recs {
		for _, r := range recs {
			all = append(all, r.timed)
			switch {
			case errors.Is(r.err, errWrong):
				s.fail("%v", r.err)
				s.failed++
			case r.err == nil:
				s.ops += w.sz.batchPoints
				perSlice[m.slice(r.end)] += float64(w.sz.batchPoints)
			}
		}
	}
	for i := range perSlice {
		perSlice[i] /= m.sliceSeconds()
	}
	s.throughput, s.throughputIs = median(perSlice[:]), "batch_points_per_s"
	s.p50, s.tail = latencyMetrics(m, all, "batch_p50_ms", "batch_p90_ms", 0.9)
	s.named = []metric{
		s.errorRatio(),
		{"batch_points_per_s", s.throughput, "1/s", fmt.Sprintf("median of %d per-slice rates, n=%d points in %.3f s", windowSlices, s.ops, m.elapsed.Seconds())},
		s.p50, s.tail,
	}
	return s, nil
}

func (w *sweepCold) plan(seconds int) [2]int {
	n := (seconds + 1) / 2
	return [2]int{n, n}
}

func (w *sweepCold) replayInputs() replayInputs {
	var pts []json.RawMessage
	for b := 0; len(pts) < 2*sweepLayoutEvery; b++ {
		pts = append(pts, w.batchPoints(streamSweep, b)...)
	}
	return newReplayInputs(pts)
}

// -------------------------------------------------------------- montecarlo

// monteCarlo runs client 0 on /v1/simulate at the paper's sample counts
// and client 1 on durable, early-stopping jobs followed over SSE.
type monteCarlo struct {
	seed    uint64
	sz      sizes
	sims    []simInput
	jobs    []simInput
	simRecs []simRec
	jobRecs []jobRec
}

type simRec struct {
	timed
	input int
	resp  *service.SimulateResponse
}

type jobRec struct {
	timed
	input int
	final *service.JobStreamEvent
}

func (w *monteCarlo) reset() { w.simRecs, w.jobRecs = nil, nil }

func (w *monteCarlo) workingSet() string {
	return fmt.Sprintf("no analytic evaluations (0 of %d LRU entries); %d distinct simulates, %d distinct jobs", cacheEntries, len(w.sims), len(w.jobs))
}

// samples splits a sample count by mode: wafers for W2W, dies for D2W.
func samples(mode string, wafers, dies int) (int, int) {
	if mode == "w2w" {
		return wafers, 0
	}
	return 0, dies
}

func (w *monteCarlo) simulate(ctx context.Context, cl *benchClient, in simInput, wafers, dies int) (*service.SimulateResponse, timed) {
	var resp *service.SimulateResponse
	wafers, dies = samples(in.mode, wafers, dies)
	lat, err := cl.call(ctx, "simulate."+in.mode, func(ctx context.Context) error {
		var err error
		resp, err = cl.api.Simulate(ctx, service.SimulateRequest{Mode: in.mode, Params: in.params, Seed: in.seed, Wafers: wafers, Dies: dies})
		return err
	})
	if err == nil && resp.Partial {
		err = fmt.Errorf("partial simulate: %d of %d samples", resp.Completed, resp.Requested)
	}
	return resp, finished(lat, err)
}

// job submits one durable job and follows its SSE stream to the final
// event; the latency runs from submit to that event.
func (w *monteCarlo) job(ctx context.Context, cl *benchClient, in simInput, wafers, dies int, epsilon bool) (*service.JobStreamEvent, timed) {
	wafers, dies = samples(in.mode, wafers, dies)
	req := service.JobSubmitRequest{Mode: in.mode, Params: in.params, Seed: in.seed, Wafers: wafers, Dies: dies}
	if epsilon {
		req.Epsilon = jobEpsilonW2W
		if in.mode == "d2w" {
			req.Epsilon = jobEpsilonD2W
		}
	}
	var final *service.JobStreamEvent
	lat, err := cl.call(ctx, "job", func(ctx context.Context) error {
		var sub *service.JobResponse
		_, err := cl.call(ctx, "jobs.submit", func(ctx context.Context) error {
			var err error
			sub, err = cl.api.SubmitJob(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		_, err = cl.call(ctx, "jobs.stream", func(ctx context.Context) error {
			var err error
			final, err = cl.api.StreamJob(ctx, sub.ID, 0, nil)
			return err
		})
		return err
	})
	if err == nil && (final.State != "done" || final.Result == nil) {
		err = fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return final, finished(lat, err)
}

// warm runs one small simulate per mode on client 0 and one small job on
// client 1, from inputs outside the timed cycles.
func (w *monteCarlo) warm(ctx context.Context, cl *benchClient) error {
	base := simInput{mode: "w2w", seed: 1, params: json.RawMessage(`{}`)}
	if cl.id == 1 {
		_, r := w.job(ctx, cl, base, 200, 0, false)
		return r.err
	}
	if _, r := w.simulate(ctx, cl, base, 20, 0); r.err != nil {
		return r.err
	}
	base.mode = "d2w"
	_, r := w.simulate(ctx, cl, base, 0, 2000)
	return r.err
}

func (w *monteCarlo) run(ctx context.Context, cl *benchClient, more func(k int) bool) {
	for k := 0; more(k); k++ {
		if cl.id == 0 {
			i := k % len(w.sims)
			resp, r := w.simulate(ctx, cl, w.sims[i], w.sz.simWafers, w.sz.simDies)
			w.simRecs = append(w.simRecs, simRec{r, i, resp})
		} else {
			i := k % len(w.jobs)
			final, r := w.job(ctx, cl, w.jobs[i], w.sz.jobWafers, w.sz.jobDies, true)
			w.jobRecs = append(w.jobRecs, jobRec{r, i, final})
		}
	}
}

// directRun is the engine call a request must reproduce bit for bit.
func directRun(in simInput, wafers, dies int) (sim.Result, string, error) {
	p, hash, err := resolve(in.params)
	if err != nil {
		return sim.Result{}, "", err
	}
	opts := sim.Options{Params: p, Seed: in.seed, Wafers: wafers, Dies: dies, Workers: 1}
	var res sim.Result
	if in.mode == "d2w" {
		res, err = sim.RunD2WContext(context.Background(), opts)
	} else {
		res, err = sim.RunW2WContext(context.Background(), opts)
	}
	return res, hash, err
}

func sameResult(got *service.SimulateResponse, want sim.Result, hash string) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return got != nil && got.ParamsHash == hash && got.Dies == want.Counts.Dies && got.Survived == want.Counts.Survived &&
		eq(got.OverlayYield, want.OverlayYield) && eq(got.DefectYield, want.DefectYield) &&
		eq(got.RecessYield, want.RecessYield) && eq(got.Yield, want.Yield) &&
		eq(got.YieldLo, want.YieldLo) && eq(got.YieldHi, want.YieldHi)
}

// check compares each distinct simulate with a direct sim run (so every
// repeat must be bit-identical to it) and each job result with a direct
// run of its completed samples with the same seed.
func (w *monteCarlo) check() error {
	type key struct {
		job      bool
		input, n int
	}
	want := map[key]int{}
	var keys []key
	need := func(k key) {
		if _, ok := want[k]; !ok {
			want[k] = len(keys)
			keys = append(keys, k)
		}
	}
	for _, r := range w.simRecs {
		if r.err == nil {
			need(key{false, r.input, 0})
		}
	}
	for _, r := range w.jobRecs {
		if r.err == nil {
			need(key{true, r.input, r.final.Completed})
		}
	}
	results := make([]sim.Result, len(keys))
	hashes := make([]string, len(keys))
	err := parallel(len(keys), func(i int) error {
		k := keys[i]
		var in simInput
		var wafers, dies int
		if k.job {
			in = w.jobs[k.input]
			wafers, dies = samples(in.mode, k.n, k.n)
		} else {
			in = w.sims[k.input]
			wafers, dies = samples(in.mode, w.sz.simWafers, w.sz.simDies)
		}
		var err error
		results[i], hashes[i], err = directRun(in, wafers, dies)
		return err
	})
	if err != nil {
		return fmt.Errorf("direct reference runs: %w", err)
	}
	for i := range w.simRecs {
		r := &w.simRecs[i]
		if k := want[key{false, r.input, 0}]; r.err == nil && !sameResult(r.resp, results[k], hashes[k]) {
			r.err = fmt.Errorf("%w: simulate %d answered %+v, want %+v (hash %s)", errWrong, r.input, r.resp, results[k], hashes[k])
		}
	}
	for i := range w.jobRecs {
		r := &w.jobRecs[i]
		if r.err != nil {
			continue
		}
		if k := want[key{true, r.input, r.final.Completed}]; !sameResult(r.final.Result, results[k], hashes[k]) {
			r.err = fmt.Errorf("%w: job %s (input %d) answered %+v, want %+v (hash %s)", errWrong, r.final.ID, r.input, r.final.Result, results[k], hashes[k])
		}
	}
	return nil
}

func (w *monteCarlo) summarize(m measured) (summary, error) {
	var s summary
	if err := w.check(); err != nil {
		return s, err
	}
	count := func(t timed) bool {
		s.attempted++
		if t.err != nil {
			s.failed++
			if errors.Is(t.err, errWrong) {
				s.fail("%v", t.err)
			}
			return false
		}
		s.ops++
		return true
	}
	// Per slice and mode: samples simulated and the latency they took.
	var samplesBy, secondsBy [windowSlices][2]float64
	var total [2]int
	for _, r := range w.simRecs {
		if !count(r.timed) {
			continue
		}
		mode, n := 0, w.sz.simWafers
		if w.sims[r.input].mode == "d2w" {
			mode, n = 1, w.sz.simDies
		}
		samplesBy[m.slice(r.end)][mode] += float64(n)
		secondsBy[m.slice(r.end)][mode] += r.lat.Seconds()
		total[mode] += n
	}
	var jobs []timed
	for _, r := range w.jobRecs {
		jobs = append(jobs, r.timed)
		if count(r.timed) {
			s.jobs = append(s.jobs, r.final)
		}
	}
	var rates [2][]float64
	for i := range samplesBy {
		for mode := range rates {
			if secondsBy[i][mode] > 0 {
				rates[mode] = append(rates[mode], samplesBy[i][mode]/secondsBy[i][mode])
			}
		}
	}
	w2w, d2w := median(rates[0]), median(rates[1])
	s.throughput = math.Sqrt(w2w * d2w)
	s.throughputIs = "geometric mean of simulate_w2w_wafers_per_s and simulate_d2w_dies_per_s"
	s.p50, s.tail = latencyMetrics(m, jobs, "job_p50_ms", "job_p90_ms", 0.9)
	s.named = []metric{
		s.errorRatio(),
		{"simulate_w2w_wafers_per_s", w2w, "1/s", fmt.Sprintf("median of %d per-slice rates, n=%d wafers", len(rates[0]), total[0])},
		{"simulate_d2w_dies_per_s", d2w, "1/s", fmt.Sprintf("median of %d per-slice rates, n=%d dies", len(rates[1]), total[1])},
		s.p50, s.tail,
	}
	return s, nil
}

func (w *monteCarlo) plan(seconds int) [2]int { return [2]int{3 * seconds, 6 * seconds} }

func (w *monteCarlo) replayInputs() replayInputs {
	var raws []json.RawMessage
	for _, in := range w.sims {
		raws = append(raws, in.params)
	}
	for _, in := range w.jobs {
		raws = append(raws, in.params)
	}
	return newReplayInputs(raws)
}
