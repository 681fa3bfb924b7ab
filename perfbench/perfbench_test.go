package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the smoke test re-execute the test binary as the daemon,
// exactly as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if store := os.Getenv(envDaemonStore); store != "" {
		os.Exit(daemonMain(store, os.Getenv(envDaemonTrace) == "1"))
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		want       float64
		q, value   float64
		beyond     int
		printedHas string
	}{
		{n: 5000, want: 0.99, q: 0.99, value: 4950, beyond: 50, printedHas: "p99 of n=5000, 50 beyond"},
		{n: 500, want: 0.99, q: 0.98, value: 490, beyond: 10, printedHas: "p98 of n=500, 10 beyond"},
		{n: 100, want: 0.9, q: 0.9, value: 90, beyond: 10, printedHas: "p90 of n=100, 10 beyond"},
		{n: 60, want: 0.9, q: 1 - 10.0/60, value: 50, beyond: 10, printedHas: "p83.3333 of n=60, 10 beyond"},
		{n: 12, want: 0.99, q: 0.5, value: 6, beyond: 6, printedHas: "p50 of n=12"},
	}
	for _, c := range cases {
		got := tail(seq(c.n), c.want)
		if got.Q != c.q || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("tail(1..%d, %v) = %+v, want q=%v value=%v beyond=%d", c.n, c.want, got, c.q, c.value, c.beyond)
		}
		if !strings.Contains(got.String(), c.printedHas) {
			t.Errorf("tail(1..%d, %v) prints %q, want it to contain %q", c.n, c.want, got, c.printedHas)
		}
	}
	if got := tail(nil, 0.99); got.N != 0 || got.Value != 0 {
		t.Errorf("tail of no samples = %+v, want zero", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30}, // overlaps the first
		{Start: 60, End: 70},
		{Start: 65, End: 68}, // nested in the third
		{Start: 90, End: 120},
		{Start: -5, End: 2}, // sticks out before the parent
	}
	// Covered: [0,2] + [10,50] + [60,70] + [90,100] = 2 + 40 + 10 + 10.
	if got := selfTime(parent, children); got != 38 {
		t.Errorf("selfTime = %d, want 38", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestInputsAreSeededValidAndDistinct(t *testing.T) {
	hot := hotWorkingSet(7, 64)
	if again := hotWorkingSet(7, 64); !bytes.Equal(hot[5], again[5]) {
		t.Error("same seed gave different eval-hot inputs")
	}
	if other := hotWorkingSet(8, 64); bytes.Equal(hot[5], other[5]) {
		t.Error("different seeds gave the same eval-hot input")
	}
	hashes := map[string]bool{}
	layouts := 0
	for i, raw := range hot {
		p, hash, err := resolve(raw)
		if err != nil {
			t.Fatalf("eval-hot point %d: %v", i, err)
		}
		hashes[hash] = true
		if p.PadLayout != nil {
			layouts++
			if len(p.PadLayout.Regions) != 8 {
				t.Errorf("eval-hot point %d has %d regions, want 8", i, len(p.PadLayout.Regions))
			}
		}
	}
	if len(hashes) != len(hot) || layouts != len(hot)/4 {
		t.Errorf("eval-hot: %d distinct of %d, %d with layouts; want all distinct, one in four with layouts", len(hashes), len(hot), layouts)
	}
	for k := 0; k < 2*sweepLayoutEvery; k++ {
		if _, _, err := resolve(sweepPoint(7, streamSweep, k)); err != nil {
			t.Fatalf("sweep point %d: %v", k, err)
		}
	}
	for i, in := range append(simInputs(7), jobInputs(7)...) {
		if _, _, err := resolve(in.params); err != nil {
			t.Fatalf("montecarlo input %d: %v", i, err)
		}
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, err := newWorkload(w.Name, 1, tinySizes); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

// tinySizes shrinks every operation for the smoke test.
var tinySizes = sizes{
	hotPoints: 8, batchPoints: 8,
	simWafers: 20, simDies: 1000,
	jobWafers: 400, jobDies: 2000,
	setups: 1,
}

// namedMetrics are the end-to-end metrics each workload prints under its
// own names, with their units.
var namedMetrics = map[string][]string{
	"eval-hot":   {"evaluate_rps 1/s", "evaluate_p50_ms ms", "evaluate_p99_ms ms"},
	"sweep-cold": {"batch_points_per_s 1/s", "batch_p50_ms ms", "batch_p90_ms ms"},
	"montecarlo": {"simulate_w2w_wafers_per_s 1/s", "simulate_d2w_dies_per_s 1/s", "job_p50_ms ms", "job_p90_ms ms"},
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	for _, name := range []string{"eval-hot", "sweep-cold", "montecarlo"} {
		for _, trace := range []int{0, 1} {
			o := options{workload: name, seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), sz: tinySizes}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			var out bytes.Buffer
			res, err := run(ctx, o, &out)
			cancel()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := append([]string{"error_ratio ratio"}, namedMetrics[name]...)
			defs := perLayer
			if trace == 0 {
				want = append(want, "setup_s s", "peak_rss_mb MiB")
				defs = endToEnd
			}
			for _, d := range defs {
				want = append(want, d.name+" "+d.unit)
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s trace %d: result lacks %s", name, trace, d.name)
				}
			}
			for _, w := range want {
				metricName, unit, _ := strings.Cut(w, " ")
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(metricName) + ` +\S+ ` + regexp.QuoteMeta(unit) + ` `)
				if !line.MatchString(out.String()) {
					t.Errorf("%s trace %d: no line for %s in %s", name, trace, w, out.String())
				}
			}
			if !regexp.MustCompile(`(?m)^metric error_ratio +0 ratio `).MatchString(out.String()) {
				t.Errorf("%s trace %d: error_ratio is not 0", name, trace)
			}
		}
	}
}
