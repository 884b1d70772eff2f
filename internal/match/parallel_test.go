package match_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

// buildProblem binds a Generated workload's patterns and prepares the
// matching instance.
func buildProblem(t *testing.T, g *gen.Generated) *match.Problem {
	t.Helper()
	pr, err := match.BuildProblem(g.L1, g.L2, bindPatterns(t, g), match.ModePattern)
	if err != nil {
		t.Fatalf("BuildProblem: %v", err)
	}
	return pr
}

// bindPatterns binds a Generated workload's patterns to its source log.
func bindPatterns(t *testing.T, g *gen.Generated) []*pattern.Pattern {
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

// sameRun asserts two (mapping, stats) results are identical up to
// wall-clock time.
func sameRun(t *testing.T, label string, m0 match.Mapping, st0 match.Stats, m1 match.Mapping, st1 match.Stats) {
	t.Helper()
	if len(m0) != len(m1) {
		t.Fatalf("%s: mapping lengths differ: %d vs %d", label, len(m0), len(m1))
	}
	for i := range m0 {
		if m0[i] != m1[i] {
			t.Errorf("%s: mapping[%d] = %v sequential vs %v parallel", label, i, m0[i], m1[i])
		}
	}
	if st0.Score != st1.Score {
		t.Errorf("%s: Score %v sequential vs %v parallel", label, st0.Score, st1.Score)
	}
	if st0.Expanded != st1.Expanded {
		t.Errorf("%s: Expanded %d sequential vs %d parallel", label, st0.Expanded, st1.Expanded)
	}
	if st0.Generated != st1.Generated {
		t.Errorf("%s: Generated %d sequential vs %d parallel", label, st0.Generated, st1.Generated)
	}
	if st0.Truncated != st1.Truncated || st0.StopReason != st1.StopReason {
		t.Errorf("%s: stop state (%v, %q) sequential vs (%v, %q) parallel",
			label, st0.Truncated, st0.StopReason, st1.Truncated, st1.StopReason)
	}
}

// TestAStarParallelGolden asserts that parallel successor expansion returns
// the identical mapping, score and effort counters as the sequential
// search — including under MaxGenerated truncation and beam pruning.
func TestAStarParallelGolden(t *testing.T) {
	g := gen.Fig1()
	for _, opts := range []match.Options{
		{Bound: match.BoundSharp},
		{Bound: match.BoundSimple},
		{Bound: match.BoundSharp, MaxGenerated: 1},
		{Bound: match.BoundSharp, MaxGenerated: 9},
		{Bound: match.BoundSharp, MaxGenerated: 60},
		{Bound: match.BoundSharp, MaxFrontier: 4},
	} {
		seqOpts := opts
		m0, st0, err0 := buildProblem(t, g).AStar(seqOpts)
		if err0 != nil {
			t.Fatalf("sequential AStar(%+v): %v", opts, err0)
		}
		for _, workers := range []int{2, 8} {
			parOpts := opts
			parOpts.Workers = workers
			m1, st1, err1 := buildProblem(t, g).AStar(parOpts)
			if err1 != nil {
				t.Fatalf("parallel AStar(%+v): %v", parOpts, err1)
			}
			sameRun(t, fmt.Sprintf("opts=%+v workers=%d", opts, workers), m0, st0, m1, st1)
		}
	}
}

// TestAdvancedParallelGolden asserts that the parallel augmentation rounds
// of HeuristicAdvanced commit exactly the sequential matching, on the
// real-like workload — including under MaxGenerated truncation.
func TestAdvancedParallelGolden(t *testing.T) {
	for _, g := range []*gen.Generated{gen.Fig1(), gen.RealLike(11, 300)} {
		for _, opts := range []match.Options{
			{Bound: match.BoundSimple},
			{Bound: match.BoundSimple, NoSeed: true},
			{Bound: match.BoundSimple, NoRepair: true},
			{Bound: match.BoundSimple, MaxGenerated: 5},
			{Bound: match.BoundSimple, MaxGenerated: 40},
			{Bound: match.BoundSimple, MaxGenerated: 200},
		} {
			m0, st0, err0 := buildProblem(t, g).HeuristicAdvanced(opts)
			if err0 != nil {
				t.Fatalf("sequential HeuristicAdvanced(%+v): %v", opts, err0)
			}
			for _, workers := range []int{2, 8} {
				parOpts := opts
				parOpts.Workers = workers
				m1, st1, err1 := buildProblem(t, g).HeuristicAdvanced(parOpts)
				if err1 != nil {
					t.Fatalf("parallel HeuristicAdvanced(%+v): %v", parOpts, err1)
				}
				sameRun(t, fmt.Sprintf("opts=%+v workers=%d", opts, workers), m0, st0, m1, st1)
			}
		}
	}
}

// TestParallelCancellationAnytime asserts the PR 1 anytime contract holds
// in parallel mode: a canceled search still returns a complete injective
// mapping marked truncated.
func TestParallelCancellationAnytime(t *testing.T) {
	g := gen.RealLike(12, 400)
	pr := buildProblem(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for name, run := range map[string]func() (match.Mapping, match.Stats, error){
		"astar": func() (match.Mapping, match.Stats, error) { return pr.AStarContext(ctx, match.Options{Workers: 8}) },
		"advanced": func() (match.Mapping, match.Stats, error) {
			return pr.HeuristicAdvancedContext(ctx, match.Options{Workers: 8})
		},
		"advanced-deadline": func() (match.Mapping, match.Stats, error) {
			return pr.HeuristicAdvancedContext(context.Background(), match.Options{Workers: 8, MaxDuration: time.Nanosecond})
		},
	} {
		m, st, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Truncated || st.StopReason == "" {
			t.Errorf("%s: canceled run not marked truncated (reason %q)", name, st.StopReason)
		}
		if !m.Complete() {
			t.Errorf("%s: canceled run returned an incomplete mapping %v", name, m)
		}
		seen := map[event.ID]bool{}
		for _, v := range m {
			if v == event.None {
				continue
			}
			if seen[v] {
				t.Errorf("%s: mapping not injective at %v", name, v)
			}
			seen[v] = true
		}
	}
}
