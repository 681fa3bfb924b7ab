package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// metric is one named measurement with its unit and a note on how it was
// taken (sample counts, the percentile used).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// metricDef names a metric BENCHMARK.json declares.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every --trace 0 run reports. Each workload
// maps its own throughput and p50 onto the generic names (README.md has
// the table); the workload-named metrics, tails included, are printed
// above the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"daemon_cpu_ms_per_op", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer are the metrics every --trace 1 run reports. A layer the
// workload does not reach reports 0 with n=0.
var perLayer = []metricDef{
	{"transport.evaluate_p50_us", "us", "lower"},
	{"service.evaluate.handler_p50_us", "us", "lower"},
	{"service.evaluate.handler_p99_us", "us", "lower"},
	{"service.evaluate.encode_us", "us", "lower"},
	{"service.batch.handler_p50_ms", "ms", "lower"},
	{"service.simulate.handler_w2w_p50_ms", "ms", "lower"},
	{"service.simulate.handler_d2w_p50_ms", "ms", "lower"},
	{"service.pool.active_mean", "count", "lower"},
	{"service.pool.queued_mean", "count", "lower"},
	{"service.shed_total", "count", "lower"},
	{"core.decode_params_us", "us", "lower"},
	{"core.canonical_hash_ns", "ns", "lower"},
	{"core.evaluate_w2w_us", "us", "lower"},
	{"core.evaluate_d2w_ms", "ms", "lower"},
	{"core.evaluate_allocs_per_point", "count", "lower"},
	{"fleetcache.hit_ratio", "ratio", "higher"},
	{"fleetcache.computes", "count", "lower"},
	{"fleetcache.coalesced", "count", "higher"},
	{"fleetcache.evictions", "count", "lower"},
	{"fleetcache.hit_ns", "ns", "lower"},
	{"fleetcache.miss_overhead_us", "us", "lower"},
	{"sim.w2w.run_fixed_us", "us", "lower"},
	{"sim.w2w.per_wafer_us", "us", "lower"},
	{"sim.w2w.per_wafer_8region_us", "us", "lower"},
	{"sim.d2w.per_die_ns", "ns", "lower"},
	{"sim.d2w.per_die_8region_ns", "ns", "lower"},
	{"sim.w2w.allocs_per_wafer", "count", "lower"},
	{"sim.d2w.allocs_per_die", "count", "lower"},
	{"sim.slice_p50_ms", "ms", "lower"},
	{"converge.samples_used", "count", "lower"},
	{"converge.samples_saved", "count", "higher"},
	{"jobs.submit_p50_ms", "ms", "lower"},
	{"jobs.queue_wait_p50_ms", "ms", "lower"},
	{"jobs.overhead_p50_ms", "ms", "lower"},
	{"jobs.checkpoints_per_job", "count", "lower"},
	{"jobs.wal_records_per_job", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// metricSet collects values by name; units come from the definitions.
type metricSet map[string]metric

func (m metricSet) put(name string, value float64, note string) {
	m[name] = metric{name: name, value: value, note: note}
}

func (m metricSet) putQuantile(name string, q quantile) {
	m.put(name, q.Value, q.String())
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints each declared metric as a line and fills the result's
// metrics. A missing metric is an error: every run reports every one.
func emit(out io.Writer, defs []metricDef, set metricSet, res *result) error {
	res.Metrics = make(map[string]jsonMetric, len(defs))
	for _, def := range defs {
		m, ok := set[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", def.name)
		}
		printMetric(out, metric{def.name, m.value, def.unit, m.note})
		res.Metrics[def.name] = jsonMetric{Value: m.value, Unit: def.unit}
	}
	return nil
}

func printMetric(out io.Writer, m metric) {
	fmt.Fprintf(out, "metric %-36s %14.6g %-5s  %s\n", m.name, m.value, m.unit, m.note)
}

// metadata describes the run's machine and inputs.
func metadata(o options, wl workload) [][2]string {
	commit := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return [][2]string{
		{"workload", o.workload},
		{"seed", fmt.Sprint(o.seed)},
		{"seconds", fmt.Sprint(o.seconds)},
		{"trace", fmt.Sprint(o.trace)},
		{"go_version", runtime.Version()},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"cpu_model", cpuModel()},
		{"store_fs", fsType(o.dir)},
		{"git_commit", commit},
		{"working_set", wl.workingSet()},
	}
}

func printMetadata(out io.Writer, meta [][2]string) {
	for _, kv := range meta {
		fmt.Fprintf(out, "meta %-11s %s\n", kv[0], kv[1])
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC2: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("unknown (statfs type 0x%x)", st.Type)
}

func writeResult(out io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
