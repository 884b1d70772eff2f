// Command eventmatch matches the event alphabets of two heterogeneous event
// logs and prints the discovered correspondence.
//
// Usage:
//
//	eventmatch [flags] LOG1 LOG2
//
// Log formats are detected from the file extension: .csv ("case,activity"
// rows), .xes/.xml (minimal XES), anything else as trace lines (one
// whitespace-separated trace per line, '#' comments).
//
// Flags:
//
//	-algorithm  exact | exact-simple | heuristic-simple | heuristic-advanced |
//	            vertex | vertex-edge | iterative | entropy
//	            (default heuristic-advanced)
//	-patterns   file of newline-separated complex patterns over LOG1's events,
//	            e.g. "SEQ(Receive,AND(Payment,Check),Ship)"
//	-timeout    search budget (default 60s; 0 = unlimited)
//	-max-frontier  beam-prune the exact search's frontier to this many nodes
//	            (0 = unbounded)
//	-workers    parallelize the search and its frequency scans across this
//	            many goroutines (default 0 = one per CPU; 1 = sequential);
//	            the result is identical for every value
//	-lenient    skip malformed log rows/events instead of failing; skips are
//	            reported on stderr
//	-stats      print search statistics
//	-dot FILE   write a Graphviz rendering of both dependency graphs with
//	            the discovered correspondence to FILE
//	-metrics-json FILE  write the run's telemetry snapshot (search effort,
//	            cache hits/misses, ingestion counters) to FILE as JSON
//	-pprof ADDR serve net/http/pprof and an expvar telemetry snapshot on
//	            ADDR (e.g. localhost:6060) for the duration of the run
//	-progress DUR  print a one-line telemetry summary to stderr every DUR
//	            (e.g. 2s) while the search runs
//
// The search is anytime: on timeout, frontier pruning, or an interrupt
// (SIGINT/SIGTERM) the best complete mapping found so far is still printed,
// marked truncated in the -stats line.
//
// Exit codes:
//
//	0  success, result proven under the requested semantics
//	1  error (unreadable input, bad flags value, internal failure)
//	2  usage error
//	3  truncated result: a budget, beam bound, or interrupt cut the search
//	   short (a best-so-far mapping was still printed), or a lenient read
//	   skipped malformed input
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"eventmatch"
	"eventmatch/internal/depgraph"
	"eventmatch/internal/pattern"
	"eventmatch/internal/telemetry"
	"eventmatch/internal/viz"
)

// Exit codes; see the command comment.
const (
	exitOK        = 0
	exitError     = 1
	exitUsage     = 2
	exitTruncated = 3
)

// Guards applied to log ingestion in lenient mode.
const (
	lenientMaxTraceLen = 1_000_000
	lenientMaxLogBytes = 1 << 30
)

type cliOptions struct {
	algorithm    string
	patternsFile string
	timeout      time.Duration
	maxFrontier  int
	workers      int
	lenient      bool
	stats        bool
	dotFile      string
	metricsJSON  string
	pprofAddr    string
	progress     time.Duration
}

func main() {
	var o cliOptions
	flag.StringVar(&o.algorithm, "algorithm", "heuristic-advanced", "matching algorithm")
	flag.StringVar(&o.patternsFile, "patterns", "", "file of complex patterns over LOG1's events")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "search budget (0 = unlimited)")
	flag.IntVar(&o.maxFrontier, "max-frontier", 0, "beam-prune the exact frontier to this many nodes (0 = unbounded)")
	flag.IntVar(&o.workers, "workers", 0, "search and scan goroutines (0 = one per CPU, 1 = the main goroutine only)")
	flag.BoolVar(&o.lenient, "lenient", false, "skip malformed log rows/events instead of failing")
	flag.BoolVar(&o.stats, "stats", false, "print search statistics")
	flag.StringVar(&o.dotFile, "dot", "", "write a Graphviz mapping rendering to this file")
	flag.StringVar(&o.metricsJSON, "metrics-json", "", "write the run's telemetry snapshot to this file as JSON")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar telemetry on this address (e.g. localhost:6060)")
	flag.DurationVar(&o.progress, "progress", 0, "print a telemetry summary line to stderr at this interval (0 = off)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eventmatch [flags] LOG1 LOG2\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(exitUsage)
	}

	// An interrupt cancels the search; the anytime engine then returns its
	// best mapping so far, which is still printed before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	truncated, err := run(ctx, flag.Arg(0), flag.Arg(1), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eventmatch:", err)
	}
	os.Exit(exitCode(truncated, err))
}

// cliWorkers maps the flag convention (0 = one per CPU) to a concrete
// worker count (the library treats 0/1 as sequential).
func cliWorkers(flagValue int) int {
	if flagValue == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return flagValue
}

// exitCode maps a run outcome to the documented exit codes.
func exitCode(truncated bool, err error) int {
	switch {
	case err != nil:
		return exitError
	case truncated:
		return exitTruncated
	default:
		return exitOK
	}
}

// run executes one match. truncated reports that the printed result is
// best-so-far (budget, beam bound, or interrupt) or that a lenient read
// skipped input.
func run(ctx context.Context, path1, path2 string, o cliOptions) (truncated bool, err error) {
	algo, err := eventmatch.ParseAlgorithm(o.algorithm)
	if err != nil {
		return false, err
	}

	// One registry serves every observability flag; with none of them set it
	// stays nil and the whole pipeline runs uninstrumented.
	var reg *eventmatch.TelemetryRegistry
	if o.metricsJSON != "" || o.pprofAddr != "" || o.progress > 0 {
		reg = eventmatch.NewTelemetry()
	}
	if o.metricsJSON != "" {
		// Written on every exit path so an interrupted (anytime) run still
		// leaves its effort counters behind.
		defer func() {
			if werr := writeMetricsJSON(reg, o.metricsJSON); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	if o.pprofAddr != "" {
		if perr := reg.PublishExpvar("eventmatch"); perr != nil {
			return false, perr
		}
		go func() {
			if serr := http.ListenAndServe(o.pprofAddr, nil); serr != nil {
				fmt.Fprintln(os.Stderr, "eventmatch: pprof:", serr)
			}
		}()
	}
	prog := telemetry.NewProgress(reg, os.Stderr, o.progress)
	prog.Start()
	defer prog.Stop()

	l1, skipped1, err := readLog(path1, o, reg)
	if err != nil {
		return false, err
	}
	l2, skipped2, err := readLog(path2, o, reg)
	if err != nil {
		return false, err
	}
	truncated = skipped1 || skipped2
	l1.RegisterTelemetry(reg, "log1")
	l2.RegisterTelemetry(reg, "log2")

	var patterns []string
	if o.patternsFile != "" {
		data, err := os.ReadFile(o.patternsFile)
		if err != nil {
			return false, err
		}
		exprs, err := pattern.ParseAll(string(data))
		if err != nil {
			return false, fmt.Errorf("%s: %w", o.patternsFile, err)
		}
		for _, e := range exprs {
			patterns = append(patterns, e.String())
		}
	}

	res, err := eventmatch.MatchContext(ctx, l1, l2, eventmatch.Config{
		Algorithm:   algo,
		Patterns:    patterns,
		MaxDuration: o.timeout,
		MaxFrontier: o.maxFrontier,
		Workers:     cliWorkers(o.workers),
		Telemetry:   reg,
	})
	if err != nil {
		return false, err
	}
	if res.Stats.Truncated {
		truncated = true
		fmt.Fprintf(os.Stderr, "eventmatch: search stopped early (%s); printing best mapping found\n", res.Stats.StopReason)
	}

	names := make([]string, 0, len(res.Pairs))
	for n := range res.Pairs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s -> %s\n", n, res.Pairs[n])
	}
	if o.stats {
		fmt.Printf("# algorithm=%s score=%.4f elapsed=%v expanded=%d generated=%d truncated=%v stop=%s\n",
			algo, res.Score, res.Stats.Elapsed, res.Stats.Expanded, res.Stats.Generated,
			res.Stats.Truncated, res.Stats.StopReason)
	}
	if o.dotFile != "" {
		dot := viz.MappingDot(depgraph.Build(l1), depgraph.Build(l2), res.Mapping)
		if err := os.WriteFile(o.dotFile, []byte(dot), 0o644); err != nil {
			return truncated, err
		}
	}
	return truncated, nil
}

// writeMetricsJSON dumps the registry's snapshot to path.
func writeMetricsJSON(reg *eventmatch.TelemetryRegistry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readLog loads one log, strictly by default, leniently (with skips reported
// on stderr) under -lenient. skipped reports whether anything was dropped.
func readLog(path string, o cliOptions, reg *eventmatch.TelemetryRegistry) (l *eventmatch.Log, skipped bool, err error) {
	ro := eventmatch.ReadOptions{Telemetry: reg}
	if o.lenient {
		ro.Lenient = true
		ro.MaxTraceLen = lenientMaxTraceLen
		ro.MaxLogBytes = lenientMaxLogBytes
	}
	l, rep, err := eventmatch.ReadLogFileReport(path, ro)
	if err != nil {
		return nil, false, err
	}
	if rep.ErrorCount > 0 {
		fmt.Fprintf(os.Stderr, "eventmatch: %s: skipped %d rows, %d traces (%d problems)\n",
			path, rep.SkippedRows, rep.SkippedTraces, rep.ErrorCount)
		for _, pe := range rep.Errors {
			fmt.Fprintf(os.Stderr, "eventmatch: %s: %s\n", path, pe.Error())
		}
	}
	return l, rep.ErrorCount > 0, nil
}
