// Benchmarks regenerating the paper's tables and figures. Each Benchmark
// runs a reduced-scale slice of the corresponding experiment (the cmd/
// experiments binary runs paper scale) and reports the headline quantities
// as custom metrics: F for accuracy, mappings/op for the search effort of
// Figs 7c-10c.
package eventmatch_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"eventmatch"
	"eventmatch/internal/event"
	"eventmatch/internal/experiments"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/metrics"
	"eventmatch/internal/pattern"
)

// benchConfig is the reduced scale used by all experiment benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:        7,
		Traces:      800,
		SynthTraces: 600,
		ExactBudget: 30 * time.Second,
		Runs:        10,
	}
}

// BenchmarkTable3Characteristics regenerates Table 3.
func BenchmarkTable3Characteristics(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(cfg)
		if len(rows) != 3 {
			b.Fatal("table 3 incomplete")
		}
	}
}

// benchProblem builds the full real-like pattern problem at a given size.
func benchProblem(b *testing.B, k int) (*match.Problem, *gen.Generated) {
	b.Helper()
	g := gen.RealLike(7, 800)
	pg, err := g.ProjectEvents(k)
	if err != nil {
		b.Fatal(err)
	}
	ps := make([]*pattern.Pattern, 0, len(pg.Patterns))
	for _, src := range pg.Patterns {
		p, err := pattern.ParseBind(src, pg.L1.Alphabet)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	pr, err := match.BuildProblem(pg.L1, pg.L2, ps, match.ModePattern)
	if err != nil {
		b.Fatal(err)
	}
	return pr, pg
}

// BenchmarkFig7ExactPatternTight runs the Fig. 7 headline series point
// (Pattern-Tight at the full event set).
func BenchmarkFig7ExactPatternTight(b *testing.B) {
	pr, pg := benchProblem(b, 11)
	var f float64
	var generated int
	for i := 0; i < b.N; i++ {
		m, st, err := pr.AStar(match.Options{Bound: match.BoundTight})
		if err != nil {
			b.Fatal(err)
		}
		f = metrics.Evaluate(m, pg.Truth).FMeasure
		generated = st.Generated
	}
	b.ReportMetric(f, "F")
	b.ReportMetric(float64(generated), "mappings/op")
}

// BenchmarkFig7ExactPatternSimple is the same point with the §3.3 bound —
// together with the tight variant it reproduces the Fig. 7c pruning gap.
func BenchmarkFig7ExactPatternSimple(b *testing.B) {
	pr, pg := benchProblem(b, 11)
	var f float64
	var generated int
	for i := 0; i < b.N; i++ {
		m, st, err := pr.AStar(match.Options{Bound: match.BoundSimple})
		if err != nil {
			b.Fatal(err)
		}
		f = metrics.Evaluate(m, pg.Truth).FMeasure
		generated = st.Generated
	}
	b.ReportMetric(f, "F")
	b.ReportMetric(float64(generated), "mappings/op")
}

// BenchmarkFig7ExactVertexEdge is the Kang–Naughton comparison point.
func BenchmarkFig7ExactVertexEdge(b *testing.B) {
	g := gen.RealLike(7, 800)
	pr, err := match.BuildProblem(g.L1, g.L2, nil, match.ModeVertexEdge)
	if err != nil {
		b.Fatal(err)
	}
	var f float64
	for i := 0; i < b.N; i++ {
		m, _, err := pr.AStar(match.Options{Bound: match.BoundTight})
		if err != nil {
			b.Fatal(err)
		}
		f = metrics.Evaluate(m, g.Truth).FMeasure
	}
	b.ReportMetric(f, "F")
}

// BenchmarkFig8ExactOverTraces reproduces a Fig. 8 point: the full pattern
// matcher at a reduced trace count.
func BenchmarkFig8ExactOverTraces(b *testing.B) {
	g := gen.RealLike(7, 800)
	head := &gen.Generated{L1: g.L1.Head(400), L2: g.L2.Head(400), Truth: g.Truth, Patterns: g.Patterns}
	ps := make([]*pattern.Pattern, 0, len(head.Patterns))
	for _, src := range head.Patterns {
		p, err := pattern.ParseBind(src, head.L1.Alphabet)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	pr, err := match.BuildProblem(head.L1, head.L2, ps, match.ModePattern)
	if err != nil {
		b.Fatal(err)
	}
	var f float64
	for i := 0; i < b.N; i++ {
		m, _, err := pr.AStar(match.Options{Bound: match.BoundTight})
		if err != nil {
			b.Fatal(err)
		}
		f = metrics.Evaluate(m, head.Truth).FMeasure
	}
	b.ReportMetric(f, "F")
}

// BenchmarkFig9HeuristicAdvanced reproduces the Fig. 9 headline point.
func BenchmarkFig9HeuristicAdvanced(b *testing.B) {
	pr, pg := benchProblem(b, 11)
	var f float64
	var generated int
	for i := 0; i < b.N; i++ {
		m, st, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple})
		if err != nil {
			b.Fatal(err)
		}
		f = metrics.Evaluate(m, pg.Truth).FMeasure
		generated = st.Generated
	}
	b.ReportMetric(f, "F")
	b.ReportMetric(float64(generated), "mappings/op")
}

// BenchmarkFig9HeuristicSimple is the greedy comparison point.
func BenchmarkFig9HeuristicSimple(b *testing.B) {
	pr, pg := benchProblem(b, 11)
	var f float64
	var generated int
	for i := 0; i < b.N; i++ {
		m, st, err := pr.GreedyExpand(match.Options{Bound: match.BoundSimple})
		if err != nil {
			b.Fatal(err)
		}
		f = metrics.Evaluate(m, pg.Truth).FMeasure
		generated = st.Generated
	}
	b.ReportMetric(f, "F")
	b.ReportMetric(float64(generated), "mappings/op")
}

// BenchmarkFig10HeuristicOverTraces reproduces a Fig. 10 point.
func BenchmarkFig10HeuristicOverTraces(b *testing.B) {
	g := gen.RealLike(7, 800)
	for _, n := range []int{200, 800} {
		n := n
		b.Run(trace(n), func(b *testing.B) {
			head := &gen.Generated{L1: g.L1.Head(n), L2: g.L2.Head(n), Truth: g.Truth, Patterns: g.Patterns}
			ps := make([]*pattern.Pattern, 0, len(head.Patterns))
			for _, src := range head.Patterns {
				p, err := pattern.ParseBind(src, head.L1.Alphabet)
				if err != nil {
					b.Fatal(err)
				}
				ps = append(ps, p)
			}
			pr, err := match.BuildProblem(head.L1, head.L2, ps, match.ModePattern)
			if err != nil {
				b.Fatal(err)
			}
			var f float64
			for i := 0; i < b.N; i++ {
				m, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple})
				if err != nil {
					b.Fatal(err)
				}
				f = metrics.Evaluate(m, head.Truth).FMeasure
			}
			b.ReportMetric(f, "F")
		})
	}
}

func trace(n int) string {
	switch n {
	case 200:
		return "traces=200"
	default:
		return "traces=800"
	}
}

// BenchmarkFig12LargeSynthetic reproduces Fig. 12 points: the advanced
// heuristic on 20- and 50-event synthetic logs where exact search is already
// infeasible at paper scale.
func BenchmarkFig12LargeSynthetic(b *testing.B) {
	for _, blocks := range []int{2, 5} {
		blocks := blocks
		name := "events=20"
		if blocks == 5 {
			name = "events=50"
		}
		b.Run(name, func(b *testing.B) {
			g := gen.LargeSynthetic(107, blocks, 600)
			ps := make([]*pattern.Pattern, 0, len(g.Patterns))
			for _, src := range g.Patterns {
				p, err := pattern.ParseBind(src, g.L1.Alphabet)
				if err != nil {
					b.Fatal(err)
				}
				ps = append(ps, p)
			}
			pr, err := match.BuildProblem(g.L1, g.L2, ps, match.ModePattern)
			if err != nil {
				b.Fatal(err)
			}
			var f float64
			for i := 0; i < b.N; i++ {
				m, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple})
				if err != nil {
					b.Fatal(err)
				}
				f = metrics.Evaluate(m, g.Truth).FMeasure
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkTable4RandomLogs reproduces the Table 4 loop at reduced runs.
func BenchmarkTable4RandomLogs(b *testing.B) {
	cfg := benchConfig()
	cfg.Runs = 5
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationBoundPruning reports the simple-vs-tight pruning ratio
// (the DESIGN.md bounding ablation, the paper's "up to two orders of
// magnitude" claim at scale).
func BenchmarkAblationBoundPruning(b *testing.B) {
	pr, _ := benchProblem(b, 11)
	var simple, tight, sharp int
	for i := 0; i < b.N; i++ {
		_, st1, err := pr.AStar(match.Options{Bound: match.BoundSimple})
		if err != nil {
			b.Fatal(err)
		}
		_, st2, err := pr.AStar(match.Options{Bound: match.BoundTight})
		if err != nil {
			b.Fatal(err)
		}
		_, st3, err := pr.AStar(match.Options{Bound: match.BoundSharp})
		if err != nil {
			b.Fatal(err)
		}
		simple, tight, sharp = st1.Generated, st2.Generated, st3.Generated
	}
	b.ReportMetric(float64(simple), "simple-mappings/op")
	b.ReportMetric(float64(tight), "tight-mappings/op")
	b.ReportMetric(float64(sharp), "sharp-mappings/op")
}

// BenchmarkAblationHeuristicPhases compares the full advanced heuristic with
// the bare Algorithm 3 (no anchoring, no repair).
func BenchmarkAblationHeuristicPhases(b *testing.B) {
	pr, pg := benchProblem(b, 11)
	var fullF, bareF float64
	for i := 0; i < b.N; i++ {
		m1, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple})
		if err != nil {
			b.Fatal(err)
		}
		m2, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple, NoSeed: true, NoRepair: true})
		if err != nil {
			b.Fatal(err)
		}
		fullF = metrics.Evaluate(m1, pg.Truth).FMeasure
		bareF = metrics.Evaluate(m2, pg.Truth).FMeasure
	}
	b.ReportMetric(fullF, "full-F")
	b.ReportMetric(bareF, "bare-F")
}

// BenchmarkAblationTraceIndex measures the It-index speedup for frequency
// counting (§3.2.3).
func BenchmarkAblationTraceIndex(b *testing.B) {
	g := gen.RealLike(7, 800)
	p, err := pattern.ParseBind(g.Patterns[1], g.L1.Alphabet)
	if err != nil {
		b.Fatal(err)
	}
	eng := pattern.NewEngine(pattern.NewTraceIndex(g.L1), 1)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Frequency(g.L1)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Frequency(p)
		}
	})
}

// BenchmarkPublicMatch exercises the public API end to end.
func BenchmarkPublicMatch(b *testing.B) {
	g := gen.RealLike(7, 400)
	for i := 0; i < b.N; i++ {
		if _, err := eventmatch.Match(g.L1, g.L2, eventmatch.Config{Patterns: g.Patterns}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkers is the worker-count axis of every parallel benchmark.
var benchWorkers = []int{1, 2, 4, 8}

// freqWorkload builds the Fig. 12-scale frequency workload: a 50-event
// synthetic log with several thousand traces and its complex patterns.
func freqWorkload(b testing.TB) (*pattern.TraceIndex, []*pattern.Pattern) {
	g := gen.LargeSynthetic(107, 5, 6000)
	ps := make([]*pattern.Pattern, 0, len(g.Patterns))
	for _, src := range g.Patterns {
		p, err := pattern.ParseBind(src, g.L1.Alphabet)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		b.Fatal("no patterns in workload")
	}
	return pattern.NewTraceIndex(g.L1), ps
}

// BenchmarkFrequencyEngine measures one full pattern-set frequency
// evaluation (uncached — the cold path every matcher pays) at each worker
// count.
func BenchmarkFrequencyEngine(b *testing.B) {
	ix, ps := freqWorkload(b)
	for _, w := range benchWorkers {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := pattern.NewEngine(ix, w)
			for i := 0; i < b.N; i++ {
				for _, p := range ps {
					eng.Frequency(p)
				}
			}
		})
	}
}

// BenchmarkMatchParallel measures the end-to-end advanced heuristic on the
// 20-event synthetic workload at each worker count.
func BenchmarkMatchParallel(b *testing.B) {
	g := gen.LargeSynthetic(107, 2, 600)
	ps := make([]*pattern.Pattern, 0, len(g.Patterns))
	for _, src := range g.Patterns {
		p, err := pattern.ParseBind(src, g.L1.Alphabet)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, w := range benchWorkers {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pr, err := match.BuildProblem(g.L1, g.L2, ps, match.ModePattern)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFrequencyEngineAllocs gates the frequency kernel on the
// BenchmarkFrequencyEngine workload. Every worker count must reproduce an
// unindexed scan of the log bit for bit, and once the engine's scratch pool
// is warm a full pattern-set evaluation at one worker allocates nothing.
func TestFrequencyEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool reuse and allocation counts")
	}
	ix, ps := freqWorkload(t)
	for _, w := range benchWorkers {
		eng := pattern.NewEngine(ix, w)
		for i, p := range ps {
			if got, want := eng.Frequency(p), p.Frequency(ix.Log()); got != want {
				t.Fatalf("workers=%d pattern %d: engine f = %v, direct scan %v", w, i, got, want)
			}
		}
	}
	eng := pattern.NewEngine(ix, 1)
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range ps {
			eng.Frequency(p)
		}
	})
	t.Logf("pattern-set evaluation at 1 worker: %v allocs", allocs)
	if allocs != 0 {
		t.Errorf("pattern-set evaluation at 1 worker: %v allocs, want 0", allocs)
	}
}

// streamTail is how many trailing traces of the frequency workload the
// streaming gate and benchmark append. 256 appends cross four bitset-width
// boundaries (one re-layout every 64 traces), so re-layout cost shows at its
// amortized weight.
const streamTail = 256

// streamWorkload returns the frequency workload's log and patterns, and
// the index of the first of its last streamTail traces, the ones streamed.
func streamWorkload(tb testing.TB) (full *event.Log, cut int, ps []*pattern.Pattern) {
	ix, ps := freqWorkload(tb)
	full = ix.Log()
	return full, full.NumTraces() - streamTail, ps
}

// streamPrefix indexes a fresh log holding full's first cut traces. It
// shares full's alphabet, which appends never change.
func streamPrefix(full *event.Log, cut int) (*event.Log, *pattern.TraceIndex) {
	l := &event.Log{Alphabet: full.Alphabet, Traces: append([]event.Trace(nil), full.Traces[:cut]...)}
	return l, pattern.NewTraceIndex(l)
}

// TestTraceIndexApplyAllocs gates streaming index maintenance: folding one
// appended trace into the index costs at most one allocation (the delta's
// distinct-event slice), amortizing the 64-append bitset re-layouts, and
// leaves an index whose bitsets and frequencies equal a rebuild's.
func TestTraceIndexApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	full, cut, ps := streamWorkload(t)
	l, ix := streamPrefix(full, cut)
	tail := full.Traces[cut:]
	next := 0
	// AllocsPerRun makes one warm-up call before the counted ones, so the
	// whole tail is appended exactly once.
	allocs := testing.AllocsPerRun(len(tail)-1, func() {
		ix.Apply(l.AppendDelta(tail[next]))
		next++
	})
	t.Logf("AppendDelta + Apply: %v allocs per append", allocs)
	if allocs > 1 {
		t.Errorf("AppendDelta + Apply: %v allocs per append, want <= 1", allocs)
	}
	if next != len(tail) || l.NumTraces() != full.NumTraces() {
		t.Fatalf("appended %d of %d tail traces", next, len(tail))
	}
	rebuilt := pattern.NewTraceIndex(full)
	for v := event.ID(0); int(v) < full.NumEvents(); v++ {
		if got, want := ix.Bits(v), rebuilt.Bits(v); !slices.Equal(got, want) {
			t.Fatalf("event %d: bitset %#x, rebuild %#x", v, got, want)
		}
	}
	inc, ref := pattern.NewEngine(ix, 1), pattern.NewEngine(rebuilt, 1)
	for i, p := range ps {
		if got, want := inc.Frequency(p), ref.Frequency(p); got != want {
			t.Errorf("pattern %d: incremental f = %v, rebuild %v", i, got, want)
		}
	}
}

// BenchmarkTraceIndexApply measures one streamed append folded into the
// index (AppendDelta + Apply) on the frequency workload, restarting from the
// prefix index whenever the tail runs out.
func BenchmarkTraceIndexApply(b *testing.B) {
	full, cut, _ := streamWorkload(b)
	tail := full.Traces[cut:]
	var l *event.Log
	var ix *pattern.TraceIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(tail) == 0 {
			b.StopTimer()
			l, ix = streamPrefix(full, cut)
			b.StartTimer()
		}
		ix.Apply(l.AppendDelta(tail[i%len(tail)]))
	}
}
