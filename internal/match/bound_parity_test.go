package match_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
)

// refFreqs holds a target log's vertex and edge frequencies counted straight
// from its traces into maps, the way the dependency graph stored them before
// it carried frequency-ordered tables.
type refFreqs struct {
	vertex map[event.ID]float64
	edge   map[depgraph.Edge]float64
}

func newRefFreqs(l *event.Log) refFreqs {
	r := refFreqs{vertex: map[event.ID]float64{}, edge: map[depgraph.Edge]float64{}}
	for _, t := range l.Traces {
		seenV, seenE := map[event.ID]bool{}, map[depgraph.Edge]bool{}
		for i, v := range t {
			if !seenV[v] {
				seenV[v] = true
				r.vertex[v]++
			}
			if i+1 < len(t) {
				if e := (depgraph.Edge{From: v, To: t[i+1]}); !seenE[e] {
					seenE[e] = true
					r.edge[e]++
				}
			}
		}
	}
	if l.NumTraces() > 0 {
		inv := 1 / float64(l.NumTraces())
		for v, c := range r.vertex {
			r.vertex[v] = c * inv
		}
		for e, c := range r.edge {
			r.edge[e] = c * inv
		}
	}
	return r
}

// refHBound is hBound with U2's spectra rebuilt the old way: vertices
// scanned by id, induced edges ranged from the edge map, both sorted with
// sort.Float64s, maxima tracked along the way.
func refHBound(pr *match.Problem, ref refFreqs, kind match.BoundKind, m match.Mapping, used []bool) float64 {
	var vfreqs, efreqs []float64
	fn, fe := 0.0, 0.0
	for v := range used {
		if !used[v] {
			f := ref.vertex[event.ID(v)]
			vfreqs = append(vfreqs, f)
			if f > fn {
				fn = f
			}
		}
	}
	for e, f := range ref.edge {
		if !used[e.From] && !used[e.To] {
			efreqs = append(efreqs, f)
			if f > fe {
				fe = f
			}
		}
	}
	sort.Float64s(vfreqs)
	sort.Float64s(efreqs)
	return pr.HBoundOver(kind, m, used, vfreqs, efreqs, fn, fe)
}

// randomPartial draws an injective partial mapping of pr's source events into
// its (padded) target alphabet, with a random number of events mapped.
func randomPartial(rng *rand.Rand, pr *match.Problem) (match.Mapping, []bool) {
	n1, n2 := pr.L1.NumEvents(), pr.G2.NumVertices()
	m, used := match.NewMapping(n1), make([]bool, n2)
	k := rng.Intn(n1 + 1)
	targets := rng.Perm(n2)
	for i, v := range rng.Perm(n1)[:k] {
		m[v] = event.ID(targets[i])
		used[targets[i]] = true
	}
	return m, used
}

// checkBoundParity asserts that hBound equals the reference exactly, for
// both Algorithm 2 kinds, over random partial mappings. The calls share the
// problem's pooled scratch, so stale state from one node would show up in
// the next.
func checkBoundParity(t *testing.T, label string, pr *match.Problem, rng *rand.Rand, trials int) {
	t.Helper()
	ref := newRefFreqs(pr.L2)
	for trial := 0; trial < trials; trial++ {
		m, used := randomPartial(rng, pr)
		for _, kind := range []match.BoundKind{match.BoundTight, match.BoundSharp} {
			got, want := pr.HBound(kind, m, used), refHBound(pr, ref, kind, m, used)
			if got != want {
				t.Fatalf("%s: %v bound of %v = %v, reference %v", label, kind, m, got, want)
			}
		}
	}
}

func TestHBoundParity(t *testing.T) {
	rl := gen.RealLike(1, 1000)
	cases := []struct {
		name string
		pr   *match.Problem
	}{
		{"fig1", buildProblem(t, gen.Fig1())},
		{"reallike", buildProblem(t, rl)},
		{"fig12-20", buildProblem(t, gen.LargeSynthetic(1, 2, 500))},
	}
	// Padded: keep the first 7 of L2's 11 events, so |V1| > |V2|.
	keep := make([]event.ID, 7)
	for i := range keep {
		keep[i] = event.ID(i)
	}
	l2, err := rl.L2.ProjectSet(keep)
	if err != nil {
		t.Fatal(err)
	}
	padded := buildProblem(t, &gen.Generated{L1: rl.L1, L2: l2, Patterns: rl.Patterns})
	if padded.G2.NumVertices() <= l2.NumEvents() {
		t.Fatalf("padded case: G2 has %d vertices for %d target events", padded.G2.NumVertices(), l2.NumEvents())
	}
	cases = append(cases, struct {
		name string
		pr   *match.Problem
	}{"padded", padded})

	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		checkBoundParity(t, c.name, c.pr, rng, 200)
	}
}

// A stream problem starts with an empty target log, so its first appends
// intern new target events and turn artificial padding into real events;
// the bound must track every rebuilt G2.
func TestHBoundParityStream(t *testing.T) {
	g := gen.RealLike(2, 200)
	sp, err := match.NewStreamProblem(g.L1, event.NewLog(), bindPatterns(t, g), match.ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	check := map[int]bool{1: true, 2: true, 3: true, 5: true, 8: true, 20: true, 60: true, 200: true}
	grew := false
	for i, tr := range g.L2.Traces {
		names := make([]string, len(tr))
		for j, v := range tr {
			names[j] = g.L2.Alphabet.Name(v)
		}
		if d := sp.Append(names...); len(d.NewEvents) > 0 && i > 0 {
			grew = true
		}
		if check[i+1] {
			checkBoundParity(t, fmt.Sprintf("stream after %d appends", i+1), sp.Problem(), rng, 50)
		}
	}
	if !grew {
		t.Fatal("no append after the first interned a new target event")
	}
}

// TestHBoundAllocs gates the bound's scratch reuse: once a problem's pooled
// bound context has grown to G2's size, evaluating h at a search node
// allocates nothing.
func TestHBoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	g := gen.LargeSynthetic(1, 2, 500)
	pr := buildProblem(t, g)
	// A mid-search node: seven source events fixed to their true images,
	// which leaves complex patterns partly mapped.
	m, used := match.NewMapping(pr.L1.NumEvents()), make([]bool, pr.G2.NumVertices())
	for v := 0; v < 7; v++ {
		m[v] = g.Truth[v]
		used[g.Truth[v]] = true
	}
	for _, kind := range []match.BoundKind{match.BoundSharp, match.BoundTight} {
		pr.HBound(kind, m, used) // grow the scratch
		if allocs := testing.AllocsPerRun(100, func() { pr.HBound(kind, m, used) }); allocs != 0 {
			t.Errorf("%v hBound: %v allocs per node, want 0", kind, allocs)
		}
	}
}

// checkChildParity asserts that the h A* derives for a child from its
// parent's cached bounds equals the child's full hBound bit for bit, for
// every unmapped a and unused b of random parent nodes, under both
// Algorithm 2 kinds. With withheld, each parent also marks a random number
// of targets below it used without mapping anything to them, which shrinks
// U2 below the unmapped events and so reaches the size cut.
func checkChildParity(t *testing.T, label string, pr *match.Problem, rng *rand.Rand, parents, withheld int) {
	t.Helper()
	for trial := 0; trial < parents; trial++ {
		m, used := randomPartial(rng, pr)
		for i, n := 0, rng.Intn(withheld+1); i < n; i++ {
			used[rng.Intn(len(used))] = true
		}
		for a := range m {
			if m[a] != event.None {
				continue
			}
			for b := range used {
				if used[b] {
					continue
				}
				child, childUsed := m.Clone(), append([]bool(nil), used...)
				child[a], childUsed[b] = event.ID(b), true
				for _, kind := range []match.BoundKind{match.BoundTight, match.BoundSharp} {
					got := match.ChildHBound(pr, kind, m, used, event.ID(a), event.ID(b))
					want := pr.HBound(kind, child, childUsed)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: %v bound of %v + %d→%d derived as %v, full hBound %v", label, kind, m, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestChildHBoundParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkChildParity(t, "fig1", buildProblem(t, gen.Fig1()), rng, 100, 0)
	// Self-loops in G2: an edge bracket can then lie on a single target, so
	// a child that takes the other one must still see the size cut.
	loops := event.FromStrings("A A B", "B C C", "C A", "D D A", "B D")
	checkChildParity(t, "self-loops", buildProblem(t, &gen.Generated{L1: loops, L2: loops}), rng, 200, 2)
	rl := gen.RealLike(1, 1000)
	checkChildParity(t, "reallike", buildProblem(t, rl), rng, 100, 0)
	for seed := int64(1); seed <= 3; seed++ {
		checkChildParity(t, fmt.Sprintf("fig12-20 seed %d", seed), buildProblem(t, gen.LargeSynthetic(seed, 2, 2000)), rng, 20, 0)
	}
	// Padded: keep the first 7 of L2's 11 events, so |V1| > |V2|.
	keep := make([]event.ID, 7)
	for i := range keep {
		keep[i] = event.ID(i)
	}
	l2, err := rl.L2.ProjectSet(keep)
	if err != nil {
		t.Fatal(err)
	}
	checkChildParity(t, "padded", buildProblem(t, &gen.Generated{L1: rl.L1, L2: l2, Patterns: rl.Patterns}), rng, 100, 0)

	g := gen.RealLike(2, 60)
	sp, err := match.NewStreamProblem(g.L1, event.NewLog(), bindPatterns(t, g), match.ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range g.L2.Traces {
		names := make([]string, len(tr))
		for j, v := range tr {
			names[j] = g.L2.Alphabet.Name(v)
		}
		sp.Append(names...)
		if n := i + 1; n == 1 || n == 8 || n == 60 {
			checkChildParity(t, fmt.Sprintf("stream after %d appends", n), sp.Problem(), rng, 50, 0)
		}
	}
}
