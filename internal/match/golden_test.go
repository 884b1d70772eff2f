package match_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

// buildProblem binds a Generated workload's patterns and prepares the
// matching instance.
func buildProblem(t testing.TB, g *gen.Generated) *match.Problem {
	t.Helper()
	pr, err := match.BuildProblem(g.L1, g.L2, bindPatterns(t, g), match.ModePattern)
	if err != nil {
		t.Fatalf("BuildProblem: %v", err)
	}
	return pr
}

// bindPatterns binds a Generated workload's patterns to its source log.
func bindPatterns(t testing.TB, g *gen.Generated) []*pattern.Pattern {
	t.Helper()
	var ps []*pattern.Pattern
	for _, src := range g.Patterns {
		p, err := pattern.ParseBind(src, g.L1.Alphabet)
		if err != nil {
			t.Fatalf("bind %q: %v", src, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// goldenRun is a search result pinned from the sequential reference loops
// that A* and Heuristic-Advanced ran at one worker before every worker count
// shared one code path: the mapping, its score and the effort counters.
type goldenRun struct {
	score               float64
	expanded, generated int
	truncated           bool
	stopReason          string
	mapping             []event.ID
}

// goldenWorkers are the widths every pinned result must hold at.
var goldenWorkers = []int{1, 2, 8}

// checkGolden asserts one run against its pinned result.
func checkGolden(t *testing.T, label string, m match.Mapping, st match.Stats, want goldenRun) {
	t.Helper()
	if fmt.Sprint(m) != fmt.Sprint(want.mapping) {
		t.Errorf("%s: mapping %v, want %v", label, m, want.mapping)
	}
	if st.Score != want.score || st.Expanded != want.expanded || st.Generated != want.generated {
		t.Errorf("%s: score %v expanded %d generated %d, want %v %d %d",
			label, st.Score, st.Expanded, st.Generated, want.score, want.expanded, want.generated)
	}
	if st.Truncated != want.truncated || st.StopReason != want.stopReason {
		t.Errorf("%s: stop state (%v, %q), want (%v, %q)",
			label, st.Truncated, st.StopReason, want.truncated, want.stopReason)
	}
}

// astarGolden pins exact A* on the paper's Fig. 1 pair, including
// MaxGenerated truncation and beam pruning.
var astarGolden = []struct {
	opts match.Options
	want goldenRun
}{
	{match.Options{Bound: match.BoundSharp}, goldenRun{15, 6, 33, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{match.Options{Bound: match.BoundSimple}, goldenRun{15, 8, 47, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{match.Options{Bound: match.BoundSharp, MaxGenerated: 1}, goldenRun{10.111241699476993, 1, 1, true, "max-generated", []event.ID{3, 0, 1, 2, 4, 7}}},
	{match.Options{Bound: match.BoundSharp, MaxGenerated: 9}, goldenRun{13.800000000000002, 2, 9, true, "max-generated", []event.ID{2, 4, 3, 5, 6, 7}}},
	{match.Options{Bound: match.BoundSharp, MaxGenerated: 60}, goldenRun{15, 6, 33, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{match.Options{Bound: match.BoundSharp, MaxFrontier: 4}, goldenRun{15, 6, 33, true, "max-frontier", []event.ID{2, 3, 4, 5, 6, 7}}},
}

// TestAStarParallelGolden asserts that A* returns the pinned mapping, score,
// effort counters and stop state at every worker count.
func TestAStarParallelGolden(t *testing.T) {
	g := gen.Fig1()
	for i, gold := range astarGolden {
		for _, workers := range goldenWorkers {
			opts := gold.opts
			opts.Workers = workers
			label := fmt.Sprintf("case %d, %d workers", i, workers)
			m, st, err := buildProblem(t, g).AStar(opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkGolden(t, label, m, st, gold.want)
		}
	}
}

// TestAStarConcurrentGolden runs the pinned A* cases as concurrent searches
// over one shared problem, each with two expansion workers: searches draw
// their expansion scratch from a shared pool, and every one must still
// return its pinned result (`go test -race` checks the sharing).
func TestAStarConcurrentGolden(t *testing.T) {
	pr := buildProblem(t, gen.Fig1())
	var wg sync.WaitGroup
	for i, gold := range astarGolden {
		for rep := 0; rep < 4; rep++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := gold.opts
				opts.Workers = 2
				m, st, err := pr.AStar(opts)
				if err != nil {
					t.Errorf("case %d: %v", i, err)
					return
				}
				checkGolden(t, fmt.Sprintf("case %d, concurrent", i), m, st, gold.want)
			}()
		}
	}
	wg.Wait()
}

// advancedGolden pins HeuristicAdvanced on the Fig. 1 pair and the 11-event
// real-like workload, including the ablations and MaxGenerated truncation
// in the anchoring and the augmentation phases.
var advancedGolden = []struct {
	workload string
	opts     match.Options
	want     goldenRun
}{
	{"fig1", match.Options{Bound: match.BoundSimple}, goldenRun{15, 10, 119, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{"fig1", match.Options{Bound: match.BoundSimple, NoSeed: true}, goldenRun{15, 36, 378, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{"fig1", match.Options{Bound: match.BoundSimple, NoRepair: true}, goldenRun{15, 10, 32, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{"fig1", match.Options{Bound: match.BoundSimple, MaxGenerated: 5}, goldenRun{15, 1, 5, true, "max-generated", []event.ID{2, 3, 4, 5, 6, 7}}},
	{"fig1", match.Options{Bound: match.BoundSimple, MaxGenerated: 40}, goldenRun{15, 10, 40, true, "max-generated", []event.ID{2, 3, 4, 5, 6, 7}}},
	{"fig1", match.Options{Bound: match.BoundSimple, MaxGenerated: 200}, goldenRun{15, 10, 119, false, "", []event.ID{2, 3, 4, 5, 6, 7}}},
	{"real-like", match.Options{Bound: match.BoundSimple}, goldenRun{39.86283595871966, 15, 930, false, "", []event.ID{10, 5, 3, 1, 0, 2, 4, 6, 7, 9, 8}}},
	{"real-like", match.Options{Bound: match.BoundSimple, NoSeed: true}, goldenRun{39.86283595871966, 66, 1606, false, "", []event.ID{10, 5, 3, 1, 0, 2, 4, 6, 7, 9, 8}}},
	{"real-like", match.Options{Bound: match.BoundSimple, NoRepair: true}, goldenRun{39.86283595871966, 15, 380, false, "", []event.ID{10, 5, 3, 1, 0, 2, 4, 6, 7, 9, 8}}},
	{"real-like", match.Options{Bound: match.BoundSimple, MaxGenerated: 5}, goldenRun{39.86283595871966, 0, 5, true, "max-generated", []event.ID{10, 5, 3, 1, 0, 2, 4, 6, 7, 9, 8}}},
	{"real-like", match.Options{Bound: match.BoundSimple, MaxGenerated: 40}, goldenRun{39.86283595871966, 0, 40, true, "max-generated", []event.ID{10, 5, 3, 1, 0, 2, 4, 6, 7, 9, 8}}},
	{"real-like", match.Options{Bound: match.BoundSimple, MaxGenerated: 200}, goldenRun{37.98291058232404, 0, 200, true, "max-generated", []event.ID{10, 5, 0, 2, 3, 4, 1, 6, 7, 9, 8}}},
}

// TestAdvancedParallelGolden asserts that HeuristicAdvanced commits the
// pinned matching, with the pinned effort counters and stop state, at every
// worker count.
func TestAdvancedParallelGolden(t *testing.T) {
	workloads := map[string]*gen.Generated{"fig1": gen.Fig1(), "real-like": gen.RealLike(11, 300)}
	for i, gold := range advancedGolden {
		for _, workers := range goldenWorkers {
			opts := gold.opts
			opts.Workers = workers
			label := fmt.Sprintf("case %d (%s), %d workers", i, gold.workload, workers)
			m, st, err := buildProblem(t, workloads[gold.workload]).HeuristicAdvanced(opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkGolden(t, label, m, st, gold.want)
		}
	}
}

// TestParallelCancellationAnytime asserts the anytime contract at one and at
// eight workers: a canceled or expired search still returns a complete
// injective mapping marked truncated.
func TestParallelCancellationAnytime(t *testing.T) {
	g := gen.RealLike(12, 400)
	pr := buildProblem(t, g)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 8} {
		for name, run := range map[string]func() (match.Mapping, match.Stats, error){
			"astar": func() (match.Mapping, match.Stats, error) {
				return pr.AStarContext(canceled, match.Options{Workers: workers})
			},
			"advanced": func() (match.Mapping, match.Stats, error) {
				return pr.HeuristicAdvancedContext(canceled, match.Options{Workers: workers})
			},
			"advanced-deadline": func() (match.Mapping, match.Stats, error) {
				return pr.HeuristicAdvancedContext(context.Background(), match.Options{Workers: workers, MaxDuration: time.Nanosecond})
			},
		} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			m, st, err := run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !st.Truncated || st.StopReason == "" {
				t.Errorf("%s: canceled run not marked truncated (reason %q)", label, st.StopReason)
			}
			if !m.Complete() {
				t.Errorf("%s: canceled run returned an incomplete mapping %v", label, m)
			}
			seen := map[event.ID]bool{}
			for _, v := range m {
				if v == event.None {
					continue
				}
				if seen[v] {
					t.Errorf("%s: mapping not injective at %v", label, v)
				}
				seen[v] = true
			}
		}
	}
}
