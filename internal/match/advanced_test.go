package match_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/telemetry"
)

// advancedInstance is one Heuristic-Advanced input of the oracle and
// metamorphic tests.
type advancedInstance struct {
	name string
	g    *gen.Generated
}

// advancedInstances spans the shapes Heuristic-Advanced meets: RealLike
// pairs, RealLikeDivergence from identical to exaggerated departments,
// LargeSynthetic at 10 and 20 events, and RealLike sources cut to fewer
// events than their targets (|V2| > |V1|), where repair also tries moves
// onto unused targets.
func advancedInstances(t testing.TB) []advancedInstance {
	t.Helper()
	var out []advancedInstance
	for seed := int64(1); seed <= 20; seed++ {
		out = append(out, advancedInstance{fmt.Sprintf("RealLike(%d)", seed), gen.RealLike(seed, 300+50*int(seed%8))})
	}
	for _, scale := range []float64{0, 0.5, 1, 2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			out = append(out, advancedInstance{fmt.Sprintf("RealLikeDivergence(%d, %v)", seed, scale), gen.RealLikeDivergence(seed, 400, scale)})
		}
	}
	for _, blocks := range []int{1, 2} {
		for seed := int64(1); seed <= 8; seed++ {
			out = append(out, advancedInstance{fmt.Sprintf("LargeSynthetic(%d, %d)", seed, blocks), gen.LargeSynthetic(seed, blocks, 300)})
		}
	}
	for k := 7; k <= 10; k++ {
		g := gen.RealLike(int64(k), 400)
		cut, err := g.ProjectEvents(k)
		if err != nil {
			t.Fatal(err)
		}
		cut.L2, cut.Truth = g.L2, g.Truth[:k]
		out = append(out, advancedInstance{fmt.Sprintf("RealLike(%d) cut to %d source events", k, k), cut})
	}
	return out
}

// advancedRun is what the oracle compares: the mapping, the score's bits,
// the effort counter and the committed repair moves.
type advancedRun struct {
	mapping   string
	scoreBits uint64
	generated int
	truncated bool
	repairs   int64
}

func runAdvanced(t *testing.T, pr *match.Problem, workers int, reference bool) advancedRun {
	t.Helper()
	opts := match.Options{Bound: match.BoundSimple, Workers: workers, Telemetry: telemetry.NewRegistry()}
	run := pr.HeuristicAdvanced
	if reference {
		run = pr.HeuristicAdvancedReference
	}
	m, st, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return advancedRun{fmt.Sprint(m), math.Float64bits(st.Score), st.Generated, st.Truncated, st.Telemetry.Counter(match.MetricAdvancedRepair)}
}

// TestAdvancedMatchesFullEvaluation is the oracle for Heuristic-Advanced's
// bound-before-scan anchoring and repair: on every instance, at one and two
// workers, it makes exactly the decisions of the reference that evaluates
// every complex-pattern frequency (the same mapping, score bits, generated
// count and repair moves), each side on a fresh problem.
func TestAdvancedMatchesFullEvaluation(t *testing.T) {
	insts := advancedInstances(t)
	if testing.Short() {
		insts = insts[:8]
	}
	var repairs int64
	padded := 0
	for _, in := range insts {
		if in.g.L2.NumEvents() > in.g.L1.NumEvents() {
			padded++
		}
		for _, workers := range []int{1, 2} {
			want := runAdvanced(t, buildProblem(t, in.g), workers, true)
			got := runAdvanced(t, buildProblem(t, in.g), workers, false)
			if got != want {
				t.Errorf("%s, %d workers: got %+v, full evaluation %+v", in.name, workers, got, want)
			}
			repairs += want.repairs
		}
	}
	if !testing.Short() && (repairs == 0 || padded == 0) {
		t.Errorf("%d repair moves and %d instances with |V2| > |V1|: the oracle exercised too little", repairs, padded)
	}
}

// relogged returns l's traces in the order perm gives, interned afresh, as
// a reader that meets them in that order would.
func relogged(l *event.Log, perm []int) *event.Log {
	out := event.NewLog()
	for _, i := range perm {
		names := make([]string, len(l.Traces[i]))
		for j, e := range l.Traces[i] {
			names[j] = l.Alphabet.Name(e)
		}
		out.AppendNames(names...)
	}
	return out
}

// namePairs renders a mapping as source name → target name.
func namePairs(pr *match.Problem, m match.Mapping) string {
	pairs := make(map[string]string, len(m))
	for v1, v2 := range m {
		if v2 != event.None {
			pairs[pr.L1.Alphabet.Name(event.ID(v1))] = pr.L2.Alphabet.Name(v2)
		}
	}
	return fmt.Sprint(pairs)
}

// TestAdvancedTraceOrderInvariant checks that Heuristic-Advanced's pairs
// depend on the target log's traces, not on their order nor on the order
// its events were first seen: rotated and shuffled copies of L2 match as
// L2 does. It also checks that a problem shared by earlier and concurrent
// runs, whose frequency cache those runs filled, answers as a fresh one.
// A daemon job's result is checked against an in-process match of the
// unrotated log on exactly these two properties.
//
// Only instances with |V1| == |V2| are checked. With more target events
// than source events the result can depend on the target ids: on the
// 7-event cut of RealLike(7), rotating L2 maps Approve and Schedule to
// other targets, with or without the bounds.
func TestAdvancedTraceOrderInvariant(t *testing.T) {
	insts := advancedInstances(t)
	if testing.Short() {
		insts = insts[:4]
	}
	opts := match.Options{Bound: match.BoundSimple, Workers: 1}
	for i, in := range insts {
		if in.g.L1.NumEvents() != in.g.L2.NumEvents() {
			continue
		}
		pr := buildProblem(t, in.g)
		m, _, err := pr.HeuristicAdvanced(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := namePairs(pr, m)

		n := in.g.L2.NumTraces()
		rng := rand.New(rand.NewSource(int64(i)))
		rot := make([]int, n)
		for k := range rot {
			rot[k] = (k + n/3 + 1) % n
		}
		for variant, perm := range map[string][]int{"rotated": rot, "shuffled": rng.Perm(n)} {
			g := *in.g
			g.L2 = relogged(in.g.L2, perm)
			pv := buildProblem(t, &g)
			mv, _, err := pv.HeuristicAdvanced(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := namePairs(pv, mv); got != want {
				t.Errorf("%s, L2 %s: pairs %s, want %s", in.name, variant, got, want)
			}
		}

		// The shared problem has served an exact search and is now serving
		// two Heuristic-Advanced runs at once.
		if _, _, err := pr.AStar(match.Options{Bound: match.BoundSharp, MaxGenerated: 2000}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]string, 2)
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ms, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple, Workers: k + 1}); err == nil {
					got[k] = namePairs(pr, ms)
				}
			}()
		}
		wg.Wait()
		for k, pairs := range got {
			if pairs != want {
				t.Errorf("%s, shared problem, %d workers: pairs %s, want %s", in.name, k+1, pairs, want)
			}
		}
	}
}

// Heuristic-Advanced's effort on RealLike(1, 1000), a daemon-sized job, on
// a fresh problem. Evaluating every complex-pattern frequency in anchoring
// and repair took 158 scans of 107,118 traces and 63,422 allocations per
// run. Bounding before scanning measured 7 scans of 4,048 traces and 2,839
// allocations; the allocation gate leaves room for runtime noise.
const (
	advancedScansPinned  = 7
	advancedTracesPinned = 4048
	advancedAllocsPinned = 3000
)

// TestAdvancedEffortPinned gates Heuristic-Advanced's deterministic effort
// on a fixed instance: the frequency engine's scans and traces scanned, and
// the allocations of one run.
func TestAdvancedEffortPinned(t *testing.T) {
	g := gen.RealLike(1, 1000)
	reg := telemetry.NewRegistry()
	_, st, err := buildProblem(t, g).HeuristicAdvanced(match.Options{Bound: match.BoundSimple, Workers: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	scans, traces := st.Telemetry.Counter("engine.scans"), st.Telemetry.Counter("engine.traces_scanned")
	t.Logf("%d scans, %d traces scanned", scans, traces)
	if scans > advancedScansPinned || traces > advancedTracesPinned {
		t.Errorf("%d scans and %d traces scanned, want ≤ %d and ≤ %d", scans, traces, advancedScansPinned, advancedTracesPinned)
	}

	if raceEnabled || match.DebugAssertions {
		return // both change allocation counts
	}
	const runs = 3
	var allocs uint64
	for i := 0; i < runs; i++ {
		pr := buildProblem(t, g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := pr.HeuristicAdvanced(match.Options{Bound: match.BoundSimple, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	perRun := allocs / runs
	t.Logf("%d allocations per run", perRun)
	if perRun > advancedAllocsPinned {
		t.Errorf("%d allocations per run, want ≤ %d", perRun, advancedAllocsPinned)
	}
}
