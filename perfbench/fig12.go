package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"eventmatch"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

// The fig12-exact20 workload: the paper's Fig. 12 synthetic log at 20
// events (2 blocks), 2,000 traces per log, matched exactly from CSV bytes.
// Every op matches a freshly generated pair: exact-search effort differs by
// more than twofold between instances, so a run that cycled a few pairs
// would measure which pairs its seed drew more than the program.
const (
	fig12Blocks = 2
	fig12Traces = 2000
	// warmupPairs are matched fig12SetupRepeats times before timing; setup_s
	// is the median repeat.
	warmupPairs       = 3
	fig12SetupRepeats = 3
)

type fig12Pair struct {
	in    libInput
	bytes int
	// refScore is the truth mapping's score computed from the generated logs
	// by match.BuildProblem and Problem.Distance.
	refScore float64
}

// newFig12Pair generates one pair from a generator seed.
func newFig12Pair(seed int64) (*fig12Pair, error) {
	g := gen.LargeSynthetic(seed, fig12Blocks, fig12Traces)
	c1, err := encode(g.L1, "csv")
	if err != nil {
		return nil, err
	}
	c2, err := encode(g.L2, "csv")
	if err != nil {
		return nil, err
	}
	bound := make([]*pattern.Pattern, len(g.Patterns))
	for i, src := range g.Patterns {
		if bound[i], err = pattern.ParseBind(src, g.L1.Alphabet); err != nil {
			return nil, err
		}
	}
	pr, err := match.BuildProblem(g.L1, g.L2, bound, match.ModePattern)
	if err != nil {
		return nil, err
	}
	return &fig12Pair{
		in: libInput{log1: c1, log2: c2, format1: "csv", format2: "csv",
			patterns: g.Patterns, truth: namePairs(g.L1, g.L2, g.Truth)},
		bytes:    len(c1) + len(c2),
		refScore: pr.Distance(g.Truth),
	}, nil
}

// fig12Result is what one op produced.
type fig12Result struct {
	mapping   match.Mapping
	score     float64
	truncated bool
	f         float64
}

// op is one untraced fig12 op through the public API: ReadLog ×2, exact
// MatchContext with one worker and no telemetry, Evaluate.
func (p *fig12Pair) op(ctx context.Context) (fig12Result, error) {
	l1, err := eventmatch.ReadLog(bytes.NewReader(p.in.log1), p.in.format1)
	if err != nil {
		return fig12Result{}, fmt.Errorf("reading log1: %w", err)
	}
	l2, err := eventmatch.ReadLog(bytes.NewReader(p.in.log2), p.in.format2)
	if err != nil {
		return fig12Result{}, fmt.Errorf("reading log2: %w", err)
	}
	res, err := eventmatch.MatchContext(ctx, l1, l2, eventmatch.Config{
		Algorithm: eventmatch.AlgoExact,
		Patterns:  p.in.patterns,
		Workers:   1,
	})
	if err != nil {
		return fig12Result{}, err
	}
	truth, err := resolveTruth(p.in.truth, l1, l2)
	if err != nil {
		return fig12Result{}, err
	}
	return fig12Result{res.Mapping, res.Score, res.Stats.Truncated,
		eventmatch.Evaluate(res.Mapping, truth).FMeasure}, nil
}

// check verifies an exact op: untruncated, a perfect F-measure, and a score
// equal (to 1e-9) to the truth mapping's score computed layer by layer from
// the generated logs.
func (p *fig12Pair) check(r fig12Result) error {
	switch {
	case r.truncated:
		return fmt.Errorf("exact search truncated")
	case r.f != 1:
		return fmt.Errorf("F-measure %.4f, want 1", r.f)
	case math.Abs(r.score-p.refScore) > 1e-9*math.Max(1, math.Abs(p.refScore)):
		return fmt.Errorf("score %v, the truth mapping scores %v", r.score, p.refScore)
	}
	return nil
}

// fig12Seeds hands out a run's pairs, each from the next generator seed.
type fig12Seeds struct{ rng *rand.Rand }

func (s fig12Seeds) next() (*fig12Pair, error) { return newFig12Pair(s.rng.Int63()) }

func runFig12(ctx context.Context, cfg runConfig) (*outcome, error) {
	seeds := fig12Seeds{rand.New(rand.NewSource(cfg.seed))}
	out := &outcome{rep: newReport()}

	// Set-up is warm-up work: one op on each warm-up pair, repeated.
	warm := make([]*fig12Pair, warmupPairs)
	for i := range warm {
		var err error
		if warm[i], err = seeds.next(); err != nil {
			return nil, err
		}
	}
	var setup []float64
	for r := 0; r < fig12SetupRepeats; r++ {
		t0 := time.Now()
		for _, p := range warm {
			res, err := p.op(ctx)
			if err == nil {
				err = p.check(res)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up op: %w", err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	out.stamp = map[string]any{
		"events_per_log": len(warm[0].in.truth),
		"traces_per_log": fig12Traces,
		"bytes_per_op":   warm[0].bytes,
		"warmup_pairs":   warmupPairs,
		"setup_repeats":  fig12SetupRepeats,
		"algorithm":      "exact (sharp bound), 1 worker",
		"pairs":          "one freshly generated pair per op",
	}
	if cfg.trace {
		return fig12Traced(ctx, cfg, seeds, out)
	}

	var (
		lat  []float64
		fSum float64
		oks  int
		busy time.Duration
	)
	start := time.Now()
	for i := 0; (time.Since(start) < cfg.window || i < minOps) && ctx.Err() == nil; i++ {
		p, err := seeds.next()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := p.op(ctx)
		d := time.Since(t0)
		busy += d
		lat = append(lat, float64(d)/1e6)
		out.attempted++
		fSum += res.f
		if err == nil {
			err = p.check(res)
		}
		if err != nil {
			out.failed++
			out.fail("op %d: %v", i, err)
			continue
		}
		oks++
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	// Throughput counts only the time spent in ops: generating and checking
	// the next pair is the benchmark's own work.
	err = out.rep.setEndToEnd(lat, out.attempted, oks, float64(out.attempted)/busy.Seconds(), out.attempted,
		fSum, out.attempted, median(setup), len(setup), rss)
	return out, err
}

// fig12Traced runs a plain op and then a traced op on each fresh pair, so
// the tracing overhead is measured against plain ops interleaved with it,
// and checks that the traced path returns the plain op's mapping and score.
func fig12Traced(ctx context.Context, cfg runConfig, seeds fig12Seeds, out *outcome) (*outcome, error) {
	tr := newTracer()
	out.tracer = tr
	var (
		plain, traced []float64
		cnt           searchCounters
		readBytes     float64
		proc          procSample // summed over the plain ops
		ops           int
	)
	start := time.Now()
	for i := 0; (time.Since(start) < cfg.window || i < minOps/2) && ctx.Err() == nil; i++ {
		p, err := seeds.next()
		if err != nil {
			return nil, err
		}
		a := selfSample()
		t0 := time.Now()
		pres, err := p.op(ctx)
		plain = append(plain, float64(time.Since(t0))/1e6)
		b := selfSample()
		proc.cpu += b.cpu - a.cpu
		proc.alloc += b.alloc - a.alloc
		proc.gcs += b.gcs - a.gcs
		out.attempted++
		if err == nil {
			err = p.check(pres)
		}
		if err != nil {
			out.failed++
			out.fail("plain op %d: %v", i, err)
			continue
		}

		t0 = time.Now()
		res, err := matchTraced(ctx, tr, i+1, p.in, eventmatch.AlgoExact)
		traced = append(traced, float64(time.Since(t0))/1e6)
		out.attempted++
		if err == nil {
			err = checkTraced(pres, res)
		}
		if err != nil {
			out.failed++
			out.fail("traced op %d: %v", i, err)
			continue
		}
		cnt.add(countersOf(res.tele))
		readBytes += float64(p.bytes)
		ops++
	}
	if ops == 0 {
		return nil, fmt.Errorf("no traced op completed")
	}
	st := aggregate(tr.Spans(), "op")
	n := float64(ops)
	r := out.rep
	read := st.Total["logio.read.log1"] + st.Total["logio.read.log2"]
	reads := st.Count["logio.read.log1"] + st.Count["logio.read.log2"]
	r.Set("logio.ingest_ms", "ms", read/n, reads)
	r.Set("logio.ingest_mb_per_s", "MB/s", ratio(readBytes/1e6, read/1e3), reads)
	r.Set("match.build_ms", "ms", st.Total["match.build"]/n, st.Count["match.build"])
	r.Set("match.search_ms", "ms", st.Total["match.search"]/n, st.Count["match.search"])
	r.setSearchMetrics(cnt, ops)
	r.setProcMetrics(procSample{}, proc, len(plain))
	r.Set("trace.overhead_pct", "%", overheadPct(plain, traced), len(traced))
	r.Set("trace.span_coverage", "ratio", st.Coverage, st.Ops)
	r.Set("trace.op_self_ms", "ms", st.Self["op"]/n, st.Ops)
	r.completeLayers()
	return out, nil
}

// checkTraced verifies that the layer-by-layer traced path reproduced the
// plain op exactly: same mapping, same score, untruncated, F = 1.
func checkTraced(plain fig12Result, traced libResult) error {
	switch {
	case traced.truncated:
		return fmt.Errorf("traced exact search truncated")
	case traced.quality.FMeasure != 1:
		return fmt.Errorf("traced F-measure %.4f, want 1", traced.quality.FMeasure)
	case traced.score != plain.score:
		return fmt.Errorf("traced path scored %v, the plain op %v", traced.score, plain.score)
	case !sameMapping(traced.mapping, plain.mapping):
		return fmt.Errorf("traced path mapping %v differs from the plain op's %v", traced.mapping, plain.mapping)
	}
	return nil
}

// overheadPct is how much slower the traced ops' median is than the
// interleaved plain ops' median, in percent.
func overheadPct(plain, traced []float64) float64 {
	return (ratio(median(traced), median(plain)) - 1) * 100
}
