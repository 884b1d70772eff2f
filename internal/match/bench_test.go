package match_test

import (
	"testing"

	"eventmatch/internal/gen"
	"eventmatch/internal/match"
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
