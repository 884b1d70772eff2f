package match

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
	"eventmatch/internal/isomorph"
	"eventmatch/internal/pattern"
)

// ReduceSubgraphIsomorphism builds the Theorem 1 reduction: given directed
// graphs G1 and G2, it constructs two event logs and a set of edge patterns
// such that a mapping with pattern normal distance ≥ |E1| exists iff G1 is
// (monomorphically) embeddable in G2. Each edge (v,u) becomes a two-event
// trace <v u>; single-event filler traces equalize the log sizes so the
// normalized frequencies line up.
//
// The construction is the paper's NP-hardness proof made executable; it is
// exercised in tests against the isomorph package, and it documents why the
// optimal matching problem cannot have a polynomial exact algorithm.
func ReduceSubgraphIsomorphism(g1, g2 *isomorph.Graph) (l1, l2 *event.Log, patterns []*pattern.Pattern, err error) {
	if g1.N == 0 || g2.N == 0 {
		return nil, nil, nil, fmt.Errorf("match: reduction needs non-empty graphs")
	}
	l1 = event.NewLog()
	for v := 0; v < g1.N; v++ {
		l1.Alphabet.Intern(fmt.Sprintf("u%d", v))
	}
	l2 = event.NewLog()
	for v := 0; v < g2.N; v++ {
		l2.Alphabet.Intern(fmt.Sprintf("w%d", v))
	}
	for v := 0; v < g1.N; v++ {
		for u := 0; u < g1.N; u++ {
			if !g1.HasEdge(v, u) {
				continue
			}
			l1.Append(event.Trace{event.ID(v), event.ID(u)})
			p, perr := pattern.Seq(pattern.Single(event.ID(v)), pattern.Single(event.ID(u)))
			if perr != nil {
				return nil, nil, nil, fmt.Errorf("match: reduction: %w", perr)
			}
			patterns = append(patterns, p)
		}
	}
	for v := 0; v < g2.N; v++ {
		for u := 0; u < g2.N; u++ {
			if g2.HasEdge(v, u) {
				l2.Append(event.Trace{event.ID(v), event.ID(u)})
			}
		}
	}
	// Filler single-event traces equalize |L1| and |L2|.
	for l1.NumTraces() < l2.NumTraces() {
		l1.Append(event.Trace{0})
	}
	for l2.NumTraces() < l1.NumTraces() {
		l2.Append(event.Trace{0})
	}
	if l1.NumTraces() == 0 {
		// Edgeless G1: the reduction degenerates (no patterns); keep the
		// logs non-empty so frequencies are defined.
		l1.Append(event.Trace{0})
		l2.Append(event.Trace{0})
	}
	return l1, l2, patterns, nil
}

// DecideSubgraphIsomorphism answers "does G1 embed in G2?" through the event
// matcher, per Theorem 1: run the reduction, find the optimal mapping under
// the edge-pattern normal distance, and compare the score against |E1|.
// Exponential in |V1| — usable for small instances and for demonstrating
// the equivalence, not as a practical isomorphism solver.
func DecideSubgraphIsomorphism(g1, g2 *isomorph.Graph, opts Options) (bool, error) {
	l1, l2, patterns, err := ReduceSubgraphIsomorphism(g1, g2)
	if err != nil {
		return false, err
	}
	if len(patterns) == 0 {
		// No edges to embed: any injective vertex mapping works.
		return g1.N <= g2.N, nil
	}
	pr, err := BuildProblem(l1, l2, patterns, ModeUserPatterns)
	if err != nil {
		return false, err
	}
	_, st, err := pr.AStar(opts)
	if err != nil {
		return false, err
	}
	const eps = 1e-9
	return st.Score >= float64(len(patterns))-eps, nil
}

func pathGraph(n int) *isomorph.Graph {
	g := isomorph.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *isomorph.Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

func TestReductionConstruction(t *testing.T) {
	g1 := pathGraph(3) // 2 edges
	g2 := cycleGraph(4)
	l1, l2, patterns, err := ReduceSubgraphIsomorphism(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 2 {
		t.Fatalf("patterns = %d, want |E1| = 2", len(patterns))
	}
	if l1.NumTraces() != l2.NumTraces() {
		t.Fatalf("log sizes differ: %d vs %d", l1.NumTraces(), l2.NumTraces())
	}
	// Every pattern must have frequency 1/|L| in L1.
	for i, p := range patterns {
		want := 1 / float64(l1.NumTraces())
		if got := p.Frequency(l1); got != want {
			t.Errorf("pattern %d frequency = %v, want %v", i, got, want)
		}
	}
}

func TestDecidePositive(t *testing.T) {
	ok, err := DecideSubgraphIsomorphism(pathGraph(3), cycleGraph(5), Options{Bound: BoundSharp})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("path3 embeds in cycle5; matcher said no")
	}
}

func TestDecideNegative(t *testing.T) {
	ok, err := DecideSubgraphIsomorphism(cycleGraph(3), pathGraph(5), Options{Bound: BoundSharp})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cycle3 does not embed in path5; matcher said yes")
	}
}

func TestDecideEdgeless(t *testing.T) {
	ok, err := DecideSubgraphIsomorphism(isomorph.NewGraph(2), isomorph.NewGraph(3), Options{Bound: BoundSharp})
	if err != nil || !ok {
		t.Errorf("edgeless small-into-large: ok=%v err=%v", ok, err)
	}
	ok, err = DecideSubgraphIsomorphism(isomorph.NewGraph(4), isomorph.NewGraph(3), Options{Bound: BoundSharp})
	if err != nil || ok {
		t.Errorf("edgeless large-into-small: ok=%v err=%v", ok, err)
	}
}

func TestReductionEmptyGraphs(t *testing.T) {
	if _, _, _, err := ReduceSubgraphIsomorphism(isomorph.NewGraph(0), pathGraph(2)); err == nil {
		t.Error("empty graph must fail")
	}
}

// Property (Theorem 1): the matcher's decision equals the direct subgraph
// isomorphism search on random small graphs.
func TestTheorem1EquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 2 + rng.Intn(3) // 2..4 pattern vertices
		n2 := n1 + rng.Intn(3)
		g1 := isomorph.NewGraph(n1)
		g2 := isomorph.NewGraph(n2)
		for v := 0; v < n1; v++ {
			for u := 0; u < n1; u++ {
				if v != u && rng.Float64() < 0.4 {
					g1.AddEdge(v, u)
				}
			}
		}
		for v := 0; v < n2; v++ {
			for u := 0; u < n2; u++ {
				if v != u && rng.Float64() < 0.5 {
					g2.AddEdge(v, u)
				}
			}
		}
		_, direct := isomorph.FindSubgraphIsomorphism(g1, g2, false)
		viaMatcher, err := DecideSubgraphIsomorphism(g1, g2, Options{Bound: BoundSharp})
		if err != nil {
			return false
		}
		return direct == viaMatcher
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
