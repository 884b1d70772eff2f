package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"eventmatch"
	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"
	"eventmatch/internal/metrics"
	"eventmatch/internal/pattern"
	"eventmatch/internal/telemetry"
)

// libInput is one matching problem as the raw bytes a user would hold.
type libInput struct {
	log1, log2       []byte
	format1, format2 string
	patterns         []string
	// truth is the name-level ground truth (log1 name → log2 name).
	truth map[string]string
}

// libResult is the output of one library-path match.
type libResult struct {
	mapping   match.Mapping
	score     float64
	truncated bool
	quality   metrics.Quality
	// tele is the search's telemetry snapshot.
	tele *telemetry.Snapshot
}

// options mirrors the match.Options eventmatch.MatchContext builds for the
// pattern-based algorithms with Workers: 1.
func options(algo eventmatch.Algorithm, reg *telemetry.Registry) match.Options {
	opts := match.Options{Bound: match.BoundSharp, Workers: 1, Telemetry: reg}
	if algo != eventmatch.AlgoExact {
		opts.Bound = match.BoundSimple
	}
	return opts
}

// matchTraced runs one problem through the layers' public functions —
// logio.Read, pattern.ParseBind, match.BuildProblem, the search, and
// metrics.Evaluate — with a span around each call and the search's counters
// read through a fresh telemetry registry. With a nil tracer it still
// collects the counters; it is the reference path every parity check
// compares against.
func matchTraced(ctx context.Context, tr *Tracer, op int, in libInput, algo eventmatch.Algorithm) (libResult, error) {
	var res libResult
	root := tr.Begin(op, 0, "op")
	defer tr.End(root)

	sp := tr.Begin(op, root, "logio.read.log1")
	l1, err := logio.Read(bytes.NewReader(in.log1), in.format1)
	tr.End(sp)
	if err != nil {
		return res, fmt.Errorf("reading log1: %w", err)
	}
	sp = tr.Begin(op, root, "logio.read.log2")
	l2, err := logio.Read(bytes.NewReader(in.log2), in.format2)
	tr.End(sp)
	if err != nil {
		return res, fmt.Errorf("reading log2: %w", err)
	}

	sp = tr.Begin(op, root, "pattern.bind")
	bound := make([]*pattern.Pattern, 0, len(in.patterns))
	for _, src := range in.patterns {
		p, err := pattern.ParseBind(src, l1.Alphabet)
		if err != nil {
			tr.End(sp)
			return res, fmt.Errorf("binding %q: %w", src, err)
		}
		bound = append(bound, p)
	}
	tr.End(sp)

	sp = tr.Begin(op, root, "match.build")
	pr, err := match.BuildProblem(l1, l2, bound, match.ModePattern)
	tr.End(sp)
	if err != nil {
		return res, fmt.Errorf("building problem: %w", err)
	}

	reg := telemetry.NewRegistry()
	sp = tr.Begin(op, root, "match.search")
	var (
		m  match.Mapping
		st match.Stats
	)
	if algo == eventmatch.AlgoExact {
		m, st, err = pr.AStarContext(ctx, options(algo, reg))
	} else {
		m, st, err = pr.HeuristicAdvancedContext(ctx, options(algo, reg))
	}
	tr.End(sp)
	if err != nil {
		return res, fmt.Errorf("search: %w", err)
	}

	sp = tr.Begin(op, root, "metrics.evaluate")
	truth, err := resolveTruth(in.truth, l1, l2)
	if err == nil {
		res.quality = metrics.Evaluate(m, truth)
	}
	tr.End(sp)
	if err != nil {
		return res, err
	}

	res.mapping = m
	res.score = st.Score
	res.truncated = st.Truncated
	res.tele = st.Telemetry
	return res, nil
}

// resolveTruth maps a name-level truth onto the parsed logs' event ids.
func resolveTruth(truth map[string]string, l1, l2 *event.Log) (match.Mapping, error) {
	m := match.NewMapping(l1.NumEvents())
	for n1, n2 := range truth {
		v1, v2 := l1.Alphabet.Lookup(n1), l2.Alphabet.Lookup(n2)
		if v1 == event.None || v2 == event.None {
			return nil, fmt.Errorf("truth pair %s→%s is not in the logs' alphabets", n1, n2)
		}
		m[v1] = v2
	}
	return m, nil
}

// namePairs renders an id-level mapping (a result or a generator's ground
// truth) by event name.
func namePairs(l1, l2 *event.Log, m match.Mapping) map[string]string {
	out := make(map[string]string, len(m))
	for v1, v2 := range m {
		if v2 != event.None {
			out[l1.Alphabet.Name(event.ID(v1))] = l2.Alphabet.Name(v2)
		}
	}
	return out
}

// encode serializes a log in the given format.
func encode(l *event.Log, format string) ([]byte, error) {
	var b bytes.Buffer
	if err := logio.Write(&b, l, format); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// traceLines renders traces as space-separated event names, the trace-lines
// format streaming sessions take.
func traceLines(l *event.Log) []string {
	out := make([]string, len(l.Traces))
	for i, t := range l.Traces {
		names := make([]string, len(t))
		for j, e := range t {
			names[j] = l.Alphabet.Name(e)
		}
		out[i] = strings.Join(names, " ")
	}
	return out
}

// searchCounters are the per-op search and pattern-engine counters of one
// traced match, read from its telemetry snapshot.
type searchCounters struct {
	expanded, generated, boundEvals, frontierPeak, rounds float64
	scans, tracesScanned, indexSkips, scanMS              float64
	cacheHits, cacheMisses                                float64
}

func countersOf(s *telemetry.Snapshot) searchCounters {
	_, scan := s.Timer("engine.scan_time")
	return searchCounters{
		expanded:      float64(s.Counter(match.MetricAStarExpanded)),
		generated:     float64(s.Counter(match.MetricAStarGenerated)),
		boundEvals:    float64(s.Counter(match.MetricAStarBoundEvals)),
		frontierPeak:  float64(s.Gauge(match.MetricAStarFrontierPeak)),
		rounds:        float64(s.Counter(match.MetricAdvancedRounds)),
		scans:         float64(s.Counter("engine.scans")),
		tracesScanned: float64(s.Counter("engine.traces_scanned")),
		indexSkips:    float64(s.Counter("pattern.index_skips")),
		scanMS:        float64(scan) / 1e6,
		cacheHits:     float64(s.Gauge("cache.hits")),
		cacheMisses:   float64(s.Gauge("cache.misses")),
	}
}

func (c *searchCounters) add(o searchCounters) {
	c.expanded += o.expanded
	c.generated += o.generated
	c.boundEvals += o.boundEvals
	c.frontierPeak += o.frontierPeak
	c.rounds += o.rounds
	c.scans += o.scans
	c.tracesScanned += o.tracesScanned
	c.indexSkips += o.indexSkips
	c.scanMS += o.scanMS
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
}

// setSearchMetrics reports the match search and pattern engine per-op
// metrics from counters summed over ops.
func (r *Report) setSearchMetrics(c searchCounters, ops int) {
	n := float64(ops)
	r.Set("match.expanded_per_op", "count", ratio(c.expanded, n), ops)
	r.Set("match.generated_per_op", "count", ratio(c.generated, n), ops)
	r.Set("match.bound_evals_per_op", "count", ratio(c.boundEvals, n), ops)
	r.Set("match.frontier_peak", "count", ratio(c.frontierPeak, n), ops)
	r.Set("match.advanced_rounds_per_op", "count", ratio(c.rounds, n), ops)
	r.Set("pattern.scans_per_op", "count", ratio(c.scans, n), ops)
	r.Set("pattern.traces_scanned_per_op", "count", ratio(c.tracesScanned, n), ops)
	r.Set("pattern.index_skips_per_op", "count", ratio(c.indexSkips, n), ops)
	r.Set("pattern.scan_ms_per_op", "ms", ratio(c.scanMS, n), ops)
	r.Set("pattern.cache_hit_ratio", "ratio", ratio(c.cacheHits, c.cacheHits+c.cacheMisses), ops)
}

// replica accumulates traced in-process re-runs of a daemon workload's ops
// (op ids below zero in the tracer): the daemon does not expose its ingest
// and build times, so the benchmark times the same calls on the same bytes.
type replica struct {
	checked int // parity-checked ops
	ops     int // traced re-runs
	bytes   float64
	cnt     searchCounters
}

func (rp *replica) run(ctx context.Context, tr *Tracer, in libInput, algo eventmatch.Algorithm, readBytes int) error {
	rp.ops++
	res, err := matchTraced(ctx, tr, -rp.ops, in, algo)
	if err != nil {
		return fmt.Errorf("traced replica: %w", err)
	}
	rp.bytes += float64(readBytes)
	rp.cnt.add(countersOf(res.tele))
	return nil
}

// setReplicaLayers reports ingest (the named read span) and build from the
// replicas' spans.
func (r *Report) setReplicaLayers(tr *Tracer, rp replica, readSpan string) {
	var replicaSpans []Span
	for _, s := range tr.Spans() {
		if s.Op < 0 {
			replicaSpans = append(replicaSpans, s)
		}
	}
	st := aggregate(replicaSpans, "op")
	n := float64(rp.ops)
	r.Set("logio.ingest_ms", "ms", ratio(st.Total[readSpan], n), st.Count[readSpan])
	r.Set("logio.ingest_mb_per_s", "MB/s", ratio(rp.bytes/1e6, st.Total[readSpan]/1e3), st.Count[readSpan])
	r.Set("match.build_ms", "ms", ratio(st.Total["match.build"], n), st.Count["match.build"])
}
