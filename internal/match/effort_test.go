package match_test

import (
	"fmt"
	"testing"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/telemetry"
)

// effortGolden pins exact A* (sharp bound) on seeded 20-event Fig. 12 pairs
// of 2,000 traces per log: the optimal mapping, its score and the search
// effort. The values predate the precomputed G2 tables and the pooled bound
// scratch; both must leave every h value, and so every pruning decision,
// unchanged.
var effortGolden = []struct {
	seed                int64
	score               float64
	expanded, generated int
	mapping             []event.ID
}{
	{1, 116.28682349266326, 118, 1812, []event.ID{10, 5, 16, 4, 18, 6, 11, 0, 13, 12, 7, 17, 1, 3, 14, 19, 2, 15, 9, 8}},
	{2, 116.14064789366324, 130, 1997, []event.ID{13, 6, 14, 15, 5, 4, 19, 18, 1, 11, 16, 3, 10, 17, 2, 12, 8, 9, 7, 0}},
	{3, 116.41644037087173, 140, 2159, []event.ID{7, 3, 17, 8, 10, 11, 9, 5, 18, 1, 15, 2, 13, 19, 16, 4, 0, 6, 14, 12}},
}

// TestAStarEffortPinned runs the pinned searches sequentially and with two
// expansion workers. The two-worker runs share G2's read-only tables across
// goroutines that each draw their own bound scratch, which `go test -race`
// checks.
func TestAStarEffortPinned(t *testing.T) {
	for _, gold := range effortGolden {
		g := gen.LargeSynthetic(gold.seed, 2, 2000)
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("seed %d, %d workers", gold.seed, workers)
			m, st, err := buildProblem(t, g).AStar(match.Options{Bound: match.BoundSharp, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if st.Truncated || st.Score != gold.score || st.Expanded != gold.expanded || st.Generated != gold.generated {
				t.Errorf("%s: score %v expanded %d generated %d truncated %v, want %v %d %d false",
					label, st.Score, st.Expanded, st.Generated, st.Truncated, gold.score, gold.expanded, gold.generated)
			}
			if fmt.Sprint(m) != fmt.Sprint(gold.mapping) {
				t.Errorf("%s: mapping %v, want %v", label, m, gold.mapping)
			}
		}
	}
}

// TestAStarFrontierPeakAcrossWorkers checks that the frontier evolves
// identically at every expansion width: the peak open-list size the
// telemetry records is the same at 1, 2 and 8 workers.
func TestAStarFrontierPeakAcrossWorkers(t *testing.T) {
	pr := buildProblem(t, gen.LargeSynthetic(1, 2, 2000))
	var want int64
	for _, workers := range []int{1, 2, 8} {
		_, st, err := pr.AStar(match.Options{Bound: match.BoundSharp, Workers: workers, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		peak := st.Telemetry.Gauge(match.MetricAStarFrontierPeak)
		if workers == 1 {
			want = peak
		} else if peak != want {
			t.Errorf("%d workers: frontier peak %d, want %d as at 1 worker", workers, peak, want)
		}
	}
	if want == 0 {
		t.Error("no frontier peak recorded")
	}
}
