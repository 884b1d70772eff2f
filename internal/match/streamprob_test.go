package match

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// streamTrace draws a target-log trace over numeric names, occasionally
// introducing a fresh name so the target alphabet grows mid-stream.
func streamTrace(rng *rand.Rand, pool int) []string {
	n := 1 + rng.Intn(5)
	names := make([]string, n)
	for i := range names {
		id := rng.Intn(pool)
		if rng.Intn(8) == 0 {
			id = pool
		}
		names[i] = fmt.Sprintf("%d", id)
	}
	return names
}

// randomPartialMapping draws an injective partial mapping V1 → V2 ∪ {None}.
func randomPartialMapping(rng *rand.Rand, n1, n2 int) Mapping {
	m := NewMapping(n1)
	perm := rng.Perm(n2)
	j := 0
	for i := 0; i < n1 && j < len(perm); i++ {
		if rng.Intn(3) == 0 {
			continue
		}
		m[i] = event.ID(perm[j])
		j++
	}
	return m
}

// forEachInjective calls fn with every complete injective mapping of n1
// source events into n2 targets; fn must not keep the mapping.
func forEachInjective(n1, n2 int, fn func(Mapping)) {
	m, used := NewMapping(n1), make([]bool, n2)
	var rec func(v int)
	rec = func(v int) {
		if v == n1 {
			fn(m)
			return
		}
		for u := 0; u < n2; u++ {
			if !used[u] {
				used[u], m[v] = true, event.ID(u)
				rec(v + 1)
				used[u] = false
			}
		}
		m[v] = event.None
	}
	rec(0)
}

// checkStreamState requires the stream problem pr to agree with fresh, a
// problem built from scratch over the same target traces, on everything
// derived from the target log: padded sizes, every table of G2 and each
// pattern's positions in its frequency orders, the distance of every
// complete injective mapping (artificial padding targets included), and
// the memoized frequency of every complex-pattern image. Evaluating every
// image after every append reads each cache entry a later append can make
// stale. It returns how many complex images passed the Proposition 3 check
// with a nonzero frequency, so callers can require the scans to have run.
func checkStreamState(t *testing.T, step int, pr, fresh *Problem) (scanned int) {
	t.Helper()
	if pr.n2real != fresh.n2real || pr.n2pad != fresh.n2pad {
		t.Fatalf("step %d: n2real/n2pad = %d/%d, rebuild %d/%d",
			step, pr.n2real, pr.n2pad, fresh.n2real, fresh.n2pad)
	}
	if d := depgraph.Diff(pr.G2, fresh.G2); d != "" {
		t.Fatalf("step %d: G2 differs from the rebuild's: %s", step, d)
	}
	for i := range pr.patterns {
		p, f := &pr.patterns[i], &fresh.patterns[i]
		if p.vpos != f.vpos || p.epos != f.epos {
			t.Fatalf("step %d: pattern %d vpos/epos = %d/%d, rebuild %d/%d",
				step, i, p.vpos, p.epos, f.vpos, f.epos)
		}
	}
	forEachInjective(pr.L1.NumEvents(), pr.n2pad, func(m Mapping) {
		if got, want := pr.Distance(m), fresh.Distance(m); got != want {
			t.Fatalf("step %d: Distance(%v) = %v, rebuild %v", step, m, got, want)
		}
		for i := range pr.patterns {
			pi := &pr.patterns[i]
			if pi.kind != KindComplex {
				continue
			}
			mp, err := pi.p.Map(m)
			if err != nil {
				t.Fatal(err)
			}
			got, want := pr.fc2.Frequency(mp), fresh.fc2.Frequency(mp)
			if got != want {
				t.Fatalf("step %d: f2(%s) = %v, rebuild %v", step, mp.String(pr.G2.Alphabet()), got, want)
			}
			if want > 0 && pr.f2(pi, m) == want {
				scanned++
			}
		}
	})
	return scanned
}

// The incremental-problem differential property: after every append a
// StreamProblem must be indistinguishable from a Problem freshly built over
// the same grown log — padded sizes, dependency graph, bound positions,
// memoized frequencies, distances, and the full A* search result, cold or
// re-seeded from the previous mapping, all bit-identical. It runs in both
// regimes: from an empty target log, padded while |V2| < |V1|, and from a
// target log that starts with more events than L1, never padded.
func TestStreamProblemDifferential(t *testing.T) {
	l1 := event.FromStrings(
		"A B C D",
		"A C B D",
		"A B C D",
		"A C B",
	)
	user := []*pattern.Pattern{
		pattern.MustSeq(
			pattern.Single(l1.Alphabet.Lookup("A")),
			pattern.MustAnd(
				pattern.Single(l1.Alphabet.Lookup("B")),
				pattern.Single(l1.Alphabet.Lookup("C")),
			),
		),
	}

	for _, regime := range []struct {
		prefix string // of the subtest names
		start  [][]string
	}{
		{"", nil}, // empty start: padded while |V2| < |V1|
		{"unpadded-", [][]string{{"0", "1", "2", "3", "4"}}}, // |V2| > |V1| from the start
	} {
		for seed := int64(1); seed <= 3; seed++ {
			regime, seed := regime, seed
			t.Run(fmt.Sprintf("%sseed=%d", regime.prefix, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				l2 := event.NewLog()
				appended := append([][]string(nil), regime.start...)
				for _, names := range regime.start {
					l2.AppendNames(names...)
				}
				sp, err := NewStreamProblem(l1, l2, user, ModePattern)
				if err != nil {
					t.Fatal(err)
				}
				if padded := sp.Problem().n2pad > sp.Problem().n2real; padded != (regime.start == nil) {
					t.Fatalf("padded = %v at the start", padded)
				}

				var prev Mapping
				scanned := 0
				for step := 0; step < 24; step++ {
					tr := streamTrace(rng, 5)
					appended = append(appended, tr)
					sp.Append(tr...)

					// From-scratch rebuild over an independent log with the
					// same content.
					freshL2 := event.NewLog()
					for _, names := range appended {
						freshL2.AppendNames(names...)
					}
					fresh, err := BuildProblem(l1, freshL2, user, ModePattern)
					if err != nil {
						t.Fatal(err)
					}

					pr := sp.Problem()
					scanned += checkStreamState(t, step, pr, fresh)
					for k := 0; k < 8; k++ {
						m := randomPartialMapping(rng, l1.NumEvents(), pr.n2real)
						if got, want := pr.Distance(m), fresh.Distance(m); got != want {
							t.Fatalf("step %d: Distance(%v) = %v, rebuild %v", step, m, got, want)
						}
					}

					// Full search parity: the re-seeded incremental search must
					// return exactly the cold from-scratch optimum (A* is exact,
					// and the seed floor yields to an equal-or-better search
					// result).
					opts := Options{Bound: BoundSharp}
					if prev != nil {
						opts.Seed = prev.Clone()
					}
					mi, si, err := pr.AStarContext(context.Background(), opts)
					if err != nil {
						t.Fatal(err)
					}
					mf, sf, err := fresh.AStarContext(context.Background(), Options{Bound: BoundSharp})
					if err != nil {
						t.Fatal(err)
					}
					// Scores agree up to summation-order noise.
					if d := si.Score - sf.Score; d > 1e-9 || d < -1e-9 {
						t.Fatalf("step %d: incremental score %v, rebuild %v", step, si.Score, sf.Score)
					}
					if len(mi) != len(mf) {
						t.Fatalf("step %d: mapping lengths differ", step)
					}
					equal := true
					for i := range mi {
						if mi[i] != mf[i] {
							equal = false
							break
						}
					}
					if !equal {
						// The one sanctioned divergence: a mathematical tie between
						// distinct optimal mappings whose float scores differ in the
						// last ulp. The seed floor then retains the previous optimum
						// (which must be what came back), and both problems must
						// still agree bit for bit on every mapping's score — state
						// parity is unconditional, search ties are not.
						if opts.Seed == nil {
							t.Fatalf("step %d: unseeded mapping diverged: %v vs %v", step, mi, mf)
						}
						for i := range mi {
							if mi[i] != opts.Seed[i] {
								t.Fatalf("step %d: diverged mapping %v is not the seed %v (rebuild %v)", step, mi, opts.Seed, mf)
							}
						}
						di, df := pr.Distance(mi), pr.Distance(mf)
						if di < df {
							t.Fatalf("step %d: seed floor kept a worse mapping: D=%v vs rebuild D=%v", step, di, df)
						}
						if di-df > 1e-9 {
							t.Fatalf("step %d: divergence is not a tie: D=%v vs rebuild D=%v", step, di, df)
						}
						if pr.Distance(mi) != fresh.Distance(mi) || pr.Distance(mf) != fresh.Distance(mf) {
							t.Fatalf("step %d: problem states disagree on diverged mappings", step)
						}
					}
					prev = mi
				}
				if scanned == 0 {
					t.Fatal("no complex-pattern image passed Proposition 3 with a nonzero frequency")
				}
			})
		}
	}
}

// A target log that starts larger than the source alphabet never needs
// padding; appends must keep the unpadded bookkeeping in sync.
func TestStreamProblemUnpadded(t *testing.T) {
	l1 := event.FromStrings("A B", "B A")
	l2 := event.FromStrings("1 2 3", "3 2 1")
	sp, err := NewStreamProblem(l1, l2, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	appended := [][]string{{"1", "2", "3"}, {"3", "2", "1"}}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 12; step++ {
		tr := streamTrace(rng, 4)
		appended = append(appended, tr)
		sp.Append(tr...)

		freshL2 := event.NewLog()
		for _, names := range appended {
			freshL2.AppendNames(names...)
		}
		fresh, err := BuildProblem(l1, freshL2, nil, ModeVertexEdge)
		if err != nil {
			t.Fatal(err)
		}
		pr := sp.Problem()
		if pr.n2real != fresh.n2real || pr.n2pad != fresh.n2pad {
			t.Fatalf("step %d: n2real/n2pad = %d/%d, rebuild %d/%d",
				step, pr.n2real, pr.n2pad, fresh.n2real, fresh.n2pad)
		}
		mi, si, err := pr.AStarContext(context.Background(), Options{Bound: BoundSharp})
		if err != nil {
			t.Fatal(err)
		}
		mf, sf, err := fresh.AStarContext(context.Background(), Options{Bound: BoundSharp})
		if err != nil {
			t.Fatal(err)
		}
		if si.Score != sf.Score {
			t.Fatalf("step %d: incremental score %v, rebuild %v", step, si.Score, sf.Score)
		}
		for i := range mi {
			if mi[i] != mf[i] {
				t.Fatalf("step %d: mapping[%d] = %v, rebuild %v", step, i, mi[i], mf[i])
			}
		}
	}
}

// TestStreamProblemNumTraces checks that the trace count follows every
// append, padded or not, and that each append's delta sits at the last
// position and names exactly the ids it interned.
func TestStreamProblemNumTraces(t *testing.T) {
	l1 := event.FromStrings("A B C", "C B A")
	for _, tc := range []struct {
		name string
		l2   *event.Log
	}{
		{"padded", event.FromStrings("1 2")},
		{"unpadded", event.FromStrings("1 2 3 4", "4 3")},
	} {
		sp, err := NewStreamProblem(l1, tc.l2, nil, ModeVertexEdge)
		if err != nil {
			t.Fatal(err)
		}
		start := sp.NumTraces()
		if start != tc.l2.NumTraces() {
			t.Fatalf("%s: NumTraces = %d at open, want %d", tc.name, start, tc.l2.NumTraces())
		}
		for i, tr := range [][]string{{"1", "2"}, {"2", "9"}, {"9", "1", "9"}} {
			known := sp.Problem().L2.NumEvents()
			d := sp.Append(tr...)
			if got := sp.NumTraces(); got != start+i+1 || got != sp.Problem().L2.NumTraces() {
				t.Fatalf("%s: after %d appends NumTraces = %d, L2 has %d, want %d",
					tc.name, i+1, got, sp.Problem().L2.NumTraces(), start+i+1)
			}
			if d.TraceIndex != sp.NumTraces()-1 {
				t.Errorf("%s: delta at %d, last trace at %d", tc.name, d.TraceIndex, sp.NumTraces()-1)
			}
			wantNew := sp.Problem().L2.NumEvents() - known
			if len(d.NewEvents) != wantNew {
				t.Errorf("%s: append %v interned %d ids, delta names %v", tc.name, tr, wantNew, d.NewEvents)
			}
		}
	}
}
