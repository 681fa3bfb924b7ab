package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"yap/internal/converge"
	"yap/internal/core"
)

// easyParams is a deliberately high-margin spec: no particles, no
// systematic overlay error, negligible recess spread — every die survives,
// so the yield estimate converges as fast as the Wilson interval allows.
func easyParams() core.Params {
	p := core.Baseline()
	p.DefectDensity = 0
	p.TranslationX, p.TranslationY, p.Rotation, p.Warpage = 0, 0, 0, 0
	p.PlacementTranslationSigma, p.PlacementRotationSigma, p.PlacementWarpageSigma = 0, 0, 0
	p.RandomMisalignmentSigma = 0
	p.RecessSigma = 0.5e-9
	return p
}

// zeroYieldParams kills every die deterministically: a 1 µm systematic
// translation is far beyond the overlay budget δ.
func zeroYieldParams() core.Params {
	p := core.Baseline()
	p.TranslationX = 1e-6
	return p
}

// sansElapsed strips the telemetry field so Results can be compared for
// bit-identity.
func sansElapsed(r Result) Result {
	r.Elapsed = 0
	return r
}

// A disabled rule (epsilon = 0, the zero value) must leave fixed-N behavior
// bit-identical — including never setting StoppedEarly.
func TestEarlyStopEpsilonZeroNeverStops(t *testing.T) {
	opts := Options{Params: core.Baseline(), Seed: 42, Dies: 3000, Workers: 2}
	plain, err := RunD2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.EarlyStop = converge.Rule{Epsilon: 0, MinSamples: 10, CheckEvery: 10}
	gated, err := RunD2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	if gated.StoppedEarly {
		t.Error("epsilon=0 run stopped early")
	}
	if !reflect.DeepEqual(sansElapsed(gated), sansElapsed(plain)) {
		t.Errorf("epsilon=0 result diverged:\n got %+v\nwant %+v", gated, plain)
	}
	if gated.Completed != 3000 || gated.Partial {
		t.Errorf("epsilon=0 run did not complete: %+v", gated)
	}
}

// An epsilon looser than the CI half-width at the first checkpoint must
// stop exactly at the min-samples floor — never earlier.
func TestEarlyStopStopsAtMinSamplesFloor(t *testing.T) {
	opts := Options{
		Params: easyParams(), Seed: 7, Dies: 20000,
		EarlyStop: converge.Rule{Epsilon: 0.49, MinSamples: 500, CheckEvery: 100},
	}
	res, err := RunD2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatalf("run did not stop early: %+v", res)
	}
	if res.Completed != 500 {
		t.Errorf("stopped at %d samples, want exactly the 500 floor", res.Completed)
	}
	if res.Requested != 20000 {
		t.Errorf("Requested = %d, want the 20000 cap", res.Requested)
	}
	if res.Partial {
		t.Error("early-stopped result marked Partial")
	}
	// The tally up to the stop index is bit-identical to a fixed-N run of
	// exactly that many samples — early stop only truncates, never reweights.
	prefix, err := RunD2W(Options{Params: opts.Params, Seed: opts.Seed, Dies: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts != prefix.Counts || res.Yield != prefix.Yield ||
		res.YieldLo != prefix.YieldLo || res.YieldHi != prefix.YieldHi {
		t.Errorf("stop-prefix tally diverged:\n got %+v\nwant %+v", res, prefix)
	}
}

// Property: same seed + same spec + same epsilon ⇒ same stop index and a
// bit-identical Result, at any worker count and across repeated runs.
func TestEarlyStopDeterministicAcrossWorkers(t *testing.T) {
	rule := converge.Rule{Epsilon: 1e-3, MinSamples: 100, CheckEvery: 100}
	base := Options{Params: easyParams(), Seed: 1234, Dies: 20000, EarlyStop: rule}
	var want Result
	for i, workers := range []int{1, 2, 3, 7, 2, 1} {
		opts := base
		opts.Workers = workers
		res, err := RunD2W(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.StoppedEarly {
			t.Fatalf("workers=%d: did not stop early: %+v", workers, res)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(sansElapsed(res), sansElapsed(want)) {
			t.Errorf("workers=%d: result diverged:\n got %+v\nwant %+v",
				workers, res, want)
		}
	}
	if want.Completed < 100 || want.Completed >= 20000 {
		t.Errorf("stop index %d outside (floor, cap)", want.Completed)
	}
}

// The W2W path slices by bonded wafer; the floor and determinism hold there
// too. 10 wafers × ~600 dies give a half-width far below the loose epsilon,
// so the run stops exactly at the floor.
func TestEarlyStopW2W(t *testing.T) {
	rule := converge.Rule{Epsilon: 0.05, MinSamples: 10, CheckEvery: 10}
	opts := Options{Params: core.Baseline(), Seed: 99, Wafers: 200, Workers: 3, EarlyStop: rule}
	res, err := RunW2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly || res.Completed != 10 || res.Requested != 200 {
		t.Fatalf("want early stop at the 10-wafer floor of 200, got %+v", res)
	}
	prefix, err := RunW2W(Options{Params: opts.Params, Seed: opts.Seed, Wafers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts != prefix.Counts {
		t.Errorf("W2W stop-prefix tally diverged: got %+v want %+v", res.Counts, prefix.Counts)
	}
	again, err := RunW2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sansElapsed(again), sansElapsed(res)) {
		t.Errorf("repeat W2W early-stop run diverged")
	}
}

// Degenerate tallies: a zero-yield and a full-yield run must both converge
// (the Wilson half-width shrinks like z²/n at p ∈ {0,1}) instead of either
// stopping instantly on a collapsed normal interval or never stopping.
func TestEarlyStopDegenerateYields(t *testing.T) {
	rule := converge.Rule{Epsilon: 0.02, MinSamples: 100, CheckEvery: 100}
	zero, err := RunD2W(Options{Params: zeroYieldParams(), Seed: 5, Dies: 20000, EarlyStop: rule})
	if err != nil {
		t.Fatal(err)
	}
	if !zero.StoppedEarly || zero.Yield != 0 {
		t.Errorf("zero-yield run: %+v, want early stop at yield 0", zero)
	}
	// Wilson half-width at p=0 is ≈ z²/2n ≈ 0.0185 at n = 100: within the
	// 0.02 epsilon at the floor exactly.
	if zero.Completed != 100 {
		t.Errorf("zero-yield stop index %d, want the 100 floor", zero.Completed)
	}
	full, err := RunD2W(Options{Params: easyParams(), Seed: 5, Dies: 20000, EarlyStop: rule})
	if err != nil {
		t.Fatal(err)
	}
	if !full.StoppedEarly || full.Yield != 1 {
		t.Errorf("full-yield run: %+v, want early stop at yield 1", full)
	}
	if full.Completed != 100 {
		t.Errorf("full-yield stop index %d, want the 100 floor", full.Completed)
	}
}

// Benchmark-style acceptance check: on an easy high-margin spec at
// epsilon = 1e-3, the sequential rule must use at most half the fixed-N
// samples (it actually uses ~10% — the Wilson half-width at p = 1 reaches
// 1e-3 near n ≈ 2000 of the 20000 cap).
func TestEarlyStopHalvesSamplesOnEasySpec(t *testing.T) {
	const cap = 20000
	rule := converge.Rule{Epsilon: 1e-3}
	res, err := RunD2W(Options{Params: easyParams(), Seed: 321, Dies: cap, EarlyStop: rule})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatalf("easy spec did not stop early: %+v", res)
	}
	if res.Completed*2 > cap {
		t.Errorf("early stop used %d of %d samples, want ≤ half", res.Completed, cap)
	}
	half := (res.YieldHi - res.YieldLo) / 2
	if half > rule.Epsilon {
		t.Errorf("stopped with half-width %g > epsilon %g", half, rule.Epsilon)
	}
	t.Logf("early stop: %d of %d samples (%.1fx fewer), half-width %.2g",
		res.Completed, cap, float64(cap)/float64(res.Completed), half)
}

// A context that fires mid-run degrades an early-stop run to a partial
// result, exactly like the fixed-N path: Partial set, StoppedEarly unset.
func TestEarlyStopPartialOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// Baseline yield ≈ 0.89 needs ~400k samples to reach ε = 1e-3; the cap
	// below is far more work than the deadline allows, so the context wins.
	res, err := RunD2WContext(ctx, Options{
		Params: core.Baseline(), Seed: 77, Dies: 1 << 24, Workers: 2,
		EarlyStop: converge.Rule{Epsilon: 1e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.StoppedEarly {
		t.Errorf("want partial non-early-stopped result, got %+v", res)
	}
	if res.Completed <= 0 || res.Completed >= 1<<24 {
		t.Errorf("implausible completed count %d", res.Completed)
	}
	if res.Requested != 1<<24 {
		t.Errorf("Requested = %d, want the cap", res.Requested)
	}
}

// An error surfaced before any sample completes (canceled context) is an
// error, not a partial result — matching the fixed-N contract.
func TestEarlyStopCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunD2WContext(ctx, Options{
		Params: core.Baseline(), Seed: 1, Dies: 10000,
		EarlyStop: converge.Rule{Epsilon: 1e-3},
	})
	if err == nil {
		t.Fatal("pre-canceled early-stop run returned nil error")
	}
}

// Early stop composes with FirstSample: a run starting at a nonzero global
// index evaluates the same ladder over its own sample range.
func TestEarlyStopWithFirstSample(t *testing.T) {
	rule := converge.Rule{Epsilon: 0.49, MinSamples: 200, CheckEvery: 100}
	res, err := RunD2W(Options{
		Params: easyParams(), Seed: 9, Dies: 5000, FirstSample: 1000, EarlyStop: rule,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly || res.Completed != 200 {
		t.Fatalf("want stop at the 200 floor, got %+v", res)
	}
	prefix, err := RunD2W(Options{Params: easyParams(), Seed: 9, Dies: 200, FirstSample: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts != prefix.Counts {
		t.Errorf("FirstSample prefix tally diverged: got %+v want %+v", res.Counts, prefix.Counts)
	}
}

// Early stop composes with CollectPerDie: a W2W run that stops after
// several slices returns, per-die tallies included, exactly the Result of
// a fixed-N run over the samples it used. This pins the worker pool's
// per-die fold and the slice driver's Merge together.
func TestEarlyStopCollectPerDie(t *testing.T) {
	const cap = 60
	rule := converge.Rule{Epsilon: 0.011, MinSamples: 2, CheckEvery: 2}
	for _, workers := range []int{1, 3} {
		res, err := RunW2W(Options{
			Params: core.Baseline(), Seed: 17, Wafers: cap, Workers: workers,
			CollectPerDie: true, EarlyStop: rule,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.StoppedEarly || res.Completed <= rule.MinSamples || res.Completed >= cap {
			t.Fatalf("workers=%d: want a stop after more than one slice, got completed %d of %d (stopped %v)",
				workers, res.Completed, res.Requested, res.StoppedEarly)
		}
		want, err := RunW2W(Options{
			Params: core.Baseline(), Seed: 17, Wafers: res.Completed, Workers: workers,
			CollectPerDie: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want.Requested, want.StoppedEarly = cap, true
		if len(res.PerDie) == 0 {
			t.Fatalf("workers=%d: early-stopped run lost its per-die tallies", workers)
		}
		if !reflect.DeepEqual(sansElapsed(res), sansElapsed(want)) {
			t.Errorf("workers=%d: early-stopped result differs from the fixed-N run of %d wafers:\n got %+v\nwant %+v",
				workers, res.Completed, sansElapsed(res), sansElapsed(want))
		}
	}
}
