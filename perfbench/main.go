// Command prismperf is PrismDB's end-to-end benchmark. One process drives
// one named workload, checks every answer it gets, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, which builds it from the surrounding checkout:
//
//	bash perfbench/run.sh --workload wire-read --seed 1 --seconds 10 --trace 0
//
// The workloads, their sizes and the reason for each are in workloads.go;
// README.md describes the metrics and the gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// e2eMetrics are what a user of the store sees, in the simulated time the
// store's devices run on (plus set-up time and memory, which are host
// figures). Every workload reports every one of them, each on that
// workload's own operations (see README.md for what "read" and "write" mean
// per workload). Wall-clock throughput and latency are per-layer numbers of
// the load generator: on a shared host they drift with the host's speed.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"virt_kops", "Kops/s"},
	{"read_us", "us"},
	{"write_amp", "B/B"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics are the traced run's per-layer numbers, one block per
// module. A layer a workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"loadgen.ops_per_s", "ops/s"},
	{"loadgen.read_p50_us", "us"},
	{"loadgen.write_p50_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.read_p99_us", "us"},
	{"loadgen.write_p99_us", "us"},

	{"server.get_self_p50_us", "us"},
	{"server.get_self_p99_us", "us"},
	{"server.set_self_p50_us", "us"},
	{"server.scan_self_p50_us", "us"},
	{"server.replies_per_flush_p50", "count"},

	{"core.get_p50_us", "us"},
	{"core.get_p99_us", "us"},
	{"core.get_nvm_frac", "ratio"},
	{"core.get_flash_frac", "ratio"},
	{"core.bloom_fp_frac", "ratio"},
	{"core.view_retries_per_kget", "count/Kop"},
	{"core.put_p50_us", "us"},
	{"core.put_p99_us", "us"},
	{"core.queue_wait_p50_us", "us"},
	{"core.apply_p50_us", "us"},
	{"core.wal_append_p50_us", "us"},
	{"core.fsync_wait_p50_us", "us"},
	{"core.write_batch_p50", "count"},
	{"core.direct_write_frac", "ratio"},
	{"core.producer_parks_per_kwrite", "count/Kop"},
	{"core.view_republishes_per_write", "count/op"},
	{"core.scan_p50_us", "us"},
	{"core.scan_ns_per_key", "ns"},

	{"compaction.rounds", "count"},
	{"compaction.virt_ms_per_round", "ms"},
	{"compaction.select_frac", "ratio"},
	{"compaction.flash_read_b_per_user_b", "B/B"},
	{"compaction.write_stall_virt_ms", "ms"},
	{"compaction.demoted_per_kop", "count/Kop"},
	{"compaction.promoted_per_kop", "count/Kop"},
	{"compaction.conflict_frac", "ratio"},
	{"compaction.hard_stalls", "count"},
	{"compaction.hard_stall_ms", "ms"},
	{"compaction.flash_wamp", "B/B"},
	{"compaction.space_amp", "B/B"},
	{"tracker.pin_threshold_mean", "ratio"},
	{"tracker.clock_max_frac", "ratio"},

	{"storage.fsyncs_per_kwrite", "count/Kop"},
	{"storage.group_batch_p50", "count"},
	{"storage.fsync_p50_us", "us"},
	{"storage.fsync_p99_us", "us"},
	{"storage.wal_b_per_user_b", "B/B"},

	{"simdev.nvm_busy_frac", "ratio"},
	{"simdev.flash_busy_frac", "ratio"},
	{"simdev.nvm_queue_us_per_op", "us"},
	{"simdev.flash_queue_us_per_op", "us"},
	{"simdev.cache_hit_frac", "ratio"},
	{"simdev.virt_read_p50_us", "us"},
	{"simdev.virt_read_p99_us", "us"},
	{"simdev.virt_write_mean_us", "us"},

	{"runtime.alloc_b_per_op", "B/op"},
	{"runtime.gc_per_kop", "count/Kop"},
	{"runtime.gc_pause_frac", "ratio"},

	{"trace.overhead_frac", "ratio"},
}

// value is one measured number with the count of samples behind it.
type value struct {
	v float64
	n int64
}

// outcome is what a workload run produces.
type outcome struct {
	metrics   map[string]value
	attempted int64
	failed    int64
	failures  []string // the first few failed checks, for the log
}

func newOutcome() *outcome { return &outcome{metrics: map[string]value{}} }

func (o *outcome) set(name string, v float64, n int64) { o.metrics[name] = value{v, n} }

// fail counts one failed operation or check; the first few are kept.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds another outcome's operation counts and failures into o.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < 20 {
			o.failures = append(o.failures, f)
		}
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string // working directory inside the checkout's build directory
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for data files")
	loadgen := flag.Bool("loadgen", false, "run as a wire workload's load generator (the benchmark starts it)")
	addr := flag.String("addr", "", "loadgen: the server to dial")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "prismperf: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *loadgen {
		if w.wire == nil {
			fmt.Fprintf(os.Stderr, "prismperf: %s has no load generator\n", w.name)
			return 2
		}
		if err := runLoadgen(w.wire, *seed, *seconds, *addr); err != nil {
			fmt.Fprintln(os.Stderr, "prismperf loadgen:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "prismperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "prismperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: dir}
	printProvenance(w, cfg)
	start := time.Now()
	out, err := w.run(cfg)
	if err != nil {
		// A failed gate or an invalid run: no result line.
		fmt.Fprintf(os.Stderr, "prismperf: %s: %v\n", w.name, err)
		return 1
	}
	out.set("peak_rss_mb", peakRSSMiB(), 1)
	fmt.Printf("# %s finished in %.1fs\n", w.name, time.Since(start).Seconds())
	return emit(out, cfg.trace)
}

// emit prints the human-readable metric lines and then the result line.
// It returns the process exit code: non-zero when a check failed.
func emit(out *outcome, trace bool) int {
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !trace {
			fmt.Fprintf(os.Stderr, "prismperf: end-to-end metric %s was not measured\n", d.name)
			return 1
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			fmt.Fprintf(os.Stderr, "prismperf: metric %s is not a number\n", d.name)
			return 1
		}
		fmt.Printf("%-36s %16.6g %-9s samples=%d\n", d.name, v.v, d.unit, v.n)
		res.Metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	for _, f := range out.failures {
		fmt.Println("# FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prismperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.failed > 0 || out.attempted < 1 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mkdir makes a fresh directory under the run's working directory.
func (c runConfig) mkdir(name string) (string, error) {
	p := filepath.Join(c.workdir, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}
