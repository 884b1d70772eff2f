package match_test

import (
	"fmt"
	"testing"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/telemetry"
)

// sharp20Problems builds the search kernel's inputs, 20-event Fig. 12 pairs
// of 2,000 traces per log, and runs each search once so that the problems'
// frequency caches are warm and the timed searches measure the search.
func sharp20Problems(tb testing.TB, seeds ...int64) []*match.Problem {
	tb.Helper()
	prs := make([]*match.Problem, len(seeds))
	for i, seed := range seeds {
		prs[i] = buildProblem(tb, gen.LargeSynthetic(seed, 2, 2000))
		if _, _, err := prs[i].AStar(match.Options{Bound: match.BoundSharp}); err != nil {
			tb.Fatal(err)
		}
	}
	return prs
}

// BenchmarkAStarSharp20 times exact A* with the sharp bound on prebuilt
// problems; one op is one search on each of three seeds. The effort
// counters are deterministic, so expanded/op and generated/op change only
// when the search itself does.
func BenchmarkAStarSharp20(b *testing.B) {
	prs := sharp20Problems(b, 1, 2, 3)
	var expanded, generated int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range prs {
			_, st, err := pr.AStar(match.Options{Bound: match.BoundSharp})
			if err != nil {
				b.Fatal(err)
			}
			expanded += st.Expanded
			generated += st.Generated
		}
	}
	b.ReportMetric(float64(expanded)/float64(b.N), "expanded/op")
	b.ReportMetric(float64(generated)/float64(b.N), "generated/op")
}

// TestAStarAllocsPerChild gates the search's allocations per generated
// child on a pinned instance (2.90 measured). Scoring a child, g and the
// derived h, allocates nothing; what is left is the children themselves —
// a node, its mapping and its used-target vector for each child the pool
// cannot serve because the frontier still holds its earlier nodes.
func TestAStarAllocsPerChild(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	pr := sharp20Problems(t, 1)[0]
	var generated int
	allocs := testing.AllocsPerRun(5, func() {
		_, st, err := pr.AStar(match.Options{Bound: match.BoundSharp})
		if err != nil {
			t.Fatal(err)
		}
		generated = st.Generated
	})
	perChild := allocs / float64(generated)
	t.Logf("%.0f allocs per search, %d children, %.2f per child", allocs, generated, perChild)
	if perChild > 3.25 {
		t.Errorf("%.2f allocs per generated child, want ≤ 3.25", perChild)
	}
}

// streamNames renders l's traces as event names, the form Append takes.
func streamNames(l *event.Log) [][]string {
	names := make([][]string, l.NumTraces())
	for i, tr := range l.Traces {
		names[i] = make([]string, len(tr))
		for j, e := range tr {
			names[i][j] = l.Alphabet.Name(e)
		}
	}
	return names
}

// openStream opens a stream problem over g's source log and patterns whose
// target log holds the first n of the given traces.
func openStream(tb testing.TB, g *gen.Generated, names [][]string, n int) *match.StreamProblem {
	tb.Helper()
	l2 := event.NewLog()
	for _, tr := range names[:n] {
		l2.AppendNames(tr...)
	}
	sp, err := match.NewStreamProblem(g.L1, l2, bindPatterns(tb, g), match.ModePattern)
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// BenchmarkStreamAppend times StreamProblem.Append on the 11-event ERP
// workload with 64 and 512 target traces already in the session; one op
// appends one trace. Every 64 appends the session is reopened at its size
// off the clock, so it never grows more than 64 traces past its label.
func BenchmarkStreamAppend(b *testing.B) {
	g := gen.RealLike(1, 600)
	names := streamNames(g.L2)
	for _, size := range []int{64, 512} {
		b.Run(fmt.Sprintf("traces=%d", size), func(b *testing.B) {
			var sp *match.StreamProblem
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					b.StopTimer()
					sp, next = openStream(b, g, names, size), size
					b.StartTimer()
				}
				sp.Append(names[next]...)
				next++
			}
		})
	}
}

// TestStreamAppendAllocs gates the allocations of one StreamProblem.Append
// on the ERP workload (14 measured): the interned trace, the delta, and
// the freshly materialized G2 with its tables. None grows with the session.
func TestStreamAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if match.DebugAssertions {
		t.Skip("the matchdebug assertion rebuilds G2 on every append")
	}
	g := gen.RealLike(1, 300)
	names := streamNames(g.L2)
	sp, next := openStream(t, g, names, 64), 64
	allocs := testing.AllocsPerRun(100, func() {
		sp.Append(names[next]...)
		next++
	})
	t.Logf("%.1f allocs per append", allocs)
	if allocs > 16 {
		t.Errorf("%.1f allocs per append, want ≤ 16", allocs)
	}
}

// BenchmarkHeuristicAdvancedRealLike times Heuristic-Advanced with the
// daemon's defaults (simple bound, one worker) on four RealLike pairs of
// 1,000 traces per log; one op matches each pair once. Every op gets fresh
// problems, built off the clock, so the frequency cache starts cold as it
// does for a daemon job that misses the problem cache. traces/op is the
// frequency engine's traces-scanned counter, which is deterministic.
func BenchmarkHeuristicAdvancedRealLike(b *testing.B) {
	gs := make([]*gen.Generated, 4)
	for i := range gs {
		gs[i] = gen.RealLike(int64(i+1), 1000)
	}
	reg := telemetry.NewRegistry()
	prs := make([]*match.Problem, len(gs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k, g := range gs {
			prs[k] = buildProblem(b, g)
		}
		b.StartTimer()
		for _, pr := range prs {
			if _, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple, Workers: 1, Telemetry: reg}); err != nil {
				b.Fatal(err)
			}
		}
	}
	snap := reg.Snapshot()
	b.ReportMetric(float64(snap.Counter("engine.traces_scanned"))/float64(b.N), "traces/op")
}
