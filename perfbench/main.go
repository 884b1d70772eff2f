// Command perfbench is eventmatch's end-to-end benchmark. It generates its
// inputs from a seed, drives the program for a fixed measurement window and
// prints every metric with its unit and sample count, ending with one JSON
// result line. See README.md for the workloads and the layer→metric map.
//
// Usage (normally through run.sh, which builds eventmatchd first):
//
//	perfbench -daemon PATH -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// maxProcs fixes the parallelism of the benchmark process and the daemon:
// at most 2, and never more than the machine has.
func maxProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	daemon   string // eventmatchd binary (daemon workloads)
	workdir  string // scratch space for daemon data dirs and span files
}

// outcome is what a workload measured.
type outcome struct {
	rep       *Report
	attempted int
	failed    int
	// problems lists failed output checks and broken invariants.
	problems []string
	// stamp describes the inputs (sizes, counts) for the report header.
	stamp  map[string]any
	tracer *Tracer
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fig12-exact20": runFig12,
	"daemon-jobs":   runDaemonJobs,
	"daemon-stream": runDaemonStream,
}

func main() {
	var (
		cfg     runConfig
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "path to the eventmatchd binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for daemon state and span files")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v --seed N --seconds S>0 --trace 0|1\n", sortedKeys(workloads))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(finish(cfg, out))
}

// finish prints the report and the result line; it returns the exit code.
func finish(cfg runConfig, out *outcome) int {
	if err := out.rep.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out.tracer != nil {
		path := filepath.Join(cfg.workdir, "out", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := out.tracer.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("# spans written to %s\n", path)
	}

	stamp := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"inputs":     out.stamp,
		"samples":    out.rep.samples,
	}
	if out.rep.top != "" {
		stamp["latency_top"] = out.rep.top
	}
	sj, _ := json.Marshal(stamp) // plain maps of strings and numbers
	fmt.Printf("# stamp %s\n", sj)
	fmt.Printf("# %-34s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, n := range out.rep.ordered() {
		m := out.rep.metrics[n]
		fmt.Printf("# %-34s %14.4f %-6s %8d\n", n, m.Value, m.Unit, out.rep.samples[n])
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	correct := len(out.problems) == 0 && out.failed == 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.rep.metrics})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// endToEnd names the end-to-end metrics in report order.
var endToEnd = []string{
	"latency_p50_ms", "latency_p95_ms", "throughput_per_s", "ok_ratio",
	"f_measure", "setup_s", "peak_rss_mb",
}

// ordered lists the report's metrics: end-to-end, then per-layer, each in
// the order BENCHMARK.json gives them.
func (r *Report) ordered() []string {
	var out []string
	for _, n := range endToEnd {
		if _, ok := r.metrics[n]; ok {
			out = append(out, n)
		}
	}
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; ok {
			out = append(out, m.name)
		}
	}
	return out
}

// setEndToEnd reports the seven end-to-end metrics every workload shares.
// lat are per-op latencies in ms, oks the ops that passed their checks, and
// rate the closed-loop throughput in the workload's unit per second.
func (r *Report) setEndToEnd(lat []float64, attempted, oks int, rate float64, rateSamples int,
	fSum float64, fSamples int, setupS float64, setupSamples int, rssMB float64) error {
	if err := r.latencySummary(lat); err != nil {
		return err
	}
	r.Set("throughput_per_s", "1/s", rate, rateSamples)
	r.Set("ok_ratio", "ratio", ratio(float64(oks), float64(attempted)), attempted)
	r.Set("f_measure", "ratio", ratio(fSum, float64(fSamples)), fSamples)
	r.Set("setup_s", "s", setupS, setupSamples)
	r.Set("peak_rss_mb", "MB", rssMB, 1)
	return nil
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"logio.ingest_ms", "ms"},
	{"logio.ingest_mb_per_s", "MB/s"},
	{"match.build_ms", "ms"},
	{"match.search_ms", "ms"},
	{"match.expanded_per_op", "count"},
	{"match.generated_per_op", "count"},
	{"match.bound_evals_per_op", "count"},
	{"match.frontier_peak", "count"},
	{"match.advanced_rounds_per_op", "count"},
	{"pattern.scans_per_op", "count"},
	{"pattern.traces_scanned_per_op", "count"},
	{"pattern.index_skips_per_op", "count"},
	{"pattern.scan_ms_per_op", "ms"},
	{"pattern.cache_hit_ratio", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"server.poll_tick_ms", "ms"},
	{"server.logcache_hit_ratio", "ratio"},
	{"server.problemcache_hit_ratio", "ratio"},
	{"store.fsyncs_per_op", "count"},
	{"store.fsync_ms_mean", "ms"},
	{"stream.append_ms", "ms"},
	{"stream.publish_ms", "ms"},
	{"stream.updates_per_append", "count"},
	{"stream.truncated_ratio", "ratio"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.alloc_mb_per_op", "MB"},
	{"proc.gc_per_op", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.span_coverage", "ratio"},
	{"trace.op_self_ms", "ms"},
}

// completeLayers reports the per-layer metrics of layers a workload does not
// exercise as 0, so every traced run carries the full metric set.
func (r *Report) completeLayers() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.Set(m.name, m.unit, 0, 0)
		}
	}
}
