package isomorph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func TestAddEdgeDedup(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 {
		t.Error("degrees wrong after dedup")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGraph(1).AddEdge(0, 1)
}

func TestPathInCycle(t *testing.T) {
	p := path(3)
	c := cycle(5)
	m, ok := FindSubgraphIsomorphism(p, c, false)
	if !ok {
		t.Fatal("path3 must embed in cycle5")
	}
	for i := 0; i+1 < len(m); i++ {
		if !c.HasEdge(m[i], m[i+1]) {
			t.Errorf("mapped edge (%d,%d) missing", m[i], m[i+1])
		}
	}
}

func TestCycleNotInPath(t *testing.T) {
	if _, ok := FindSubgraphIsomorphism(cycle(3), path(5), false); ok {
		t.Error("cycle must not embed in path")
	}
}

func TestPatternLargerThanTarget(t *testing.T) {
	if _, ok := FindSubgraphIsomorphism(path(4), path(3), false); ok {
		t.Error("larger pattern cannot embed")
	}
}

func TestDirectionMatters(t *testing.T) {
	// pattern 0->1, target 1->0 only: no embedding with a single edge each...
	// actually 0->1 can map to (1,0). Use asymmetric structure instead:
	// pattern v with out-degree 2; target has max out-degree 1.
	p := NewGraph(3)
	p.AddEdge(0, 1)
	p.AddEdge(0, 2)
	tg := path(5)
	if _, ok := FindSubgraphIsomorphism(p, tg, false); ok {
		t.Error("out-star cannot embed in a path")
	}
}

func TestInducedVsMonomorphism(t *testing.T) {
	// Pattern: two disconnected vertices. Target: single edge 0->1.
	p := NewGraph(2)
	tg := NewGraph(2)
	tg.AddEdge(0, 1)
	if _, ok := FindSubgraphIsomorphism(p, tg, false); !ok {
		t.Error("monomorphism must allow extra target edges")
	}
	if _, ok := FindSubgraphIsomorphism(p, tg, true); ok {
		t.Error("induced embedding must forbid extra target edges")
	}
}

func TestSelfLoops(t *testing.T) {
	p := NewGraph(1)
	p.AddEdge(0, 0)
	tgNoLoop := NewGraph(2)
	tgNoLoop.AddEdge(0, 1)
	if _, ok := FindSubgraphIsomorphism(p, tgNoLoop, false); ok {
		t.Error("self-loop pattern cannot embed in loop-free target")
	}
	tgLoop := NewGraph(2)
	tgLoop.AddEdge(1, 1)
	m, ok := FindSubgraphIsomorphism(p, tgLoop, false)
	if !ok || m[0] != 1 {
		t.Errorf("self-loop should map to vertex 1: m=%v ok=%v", m, ok)
	}
	// Induced: a non-loop pattern vertex cannot map onto a loop vertex.
	p2 := NewGraph(1)
	if _, ok := FindSubgraphIsomorphism(p2, tgLoop, true); !ok {
		t.Error("vertex 0 of target has no loop; induced embedding exists")
	}
}

func TestEnumerateCountsAndStops(t *testing.T) {
	count := func(pattern, target *Graph, limit int) int {
		n := 0
		Enumerate(pattern, target, false, func([]int) bool {
			n++
			return limit == 0 || n < limit
		})
		return n
	}
	// path2 (one edge) in cycle4: 4 embeddings.
	if got := count(path(2), cycle(4), 0); got != 4 {
		t.Errorf("embeddings = %d, want 4", got)
	}
	// A visit returning false stops the enumeration.
	if got := count(path(2), cycle(4), 2); got != 2 {
		t.Errorf("limited embeddings = %d, want 2", got)
	}
	if got := count(path(3), path(2), 0); got != 0 {
		t.Errorf("too-large pattern embeddings = %d, want 0", got)
	}
}

func TestPaperExampleP1InG2(t *testing.T) {
	// The paper's Example 2: pattern p1's graph {AB,AC,BC,CB,BD,CD} is
	// isomorphic to a subgraph of G2 on {3,4,5,6}. Reconstruct both.
	p := NewGraph(4) // A=0 B=1 C=2 D=3
	p.AddEdge(0, 1)
	p.AddEdge(0, 2)
	p.AddEdge(1, 2)
	p.AddEdge(2, 1)
	p.AddEdge(1, 3)
	p.AddEdge(2, 3)
	// Target: same shape on vertices 3,4,5,6 of an 8-vertex graph plus noise.
	g := NewGraph(8)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(4, 5)
	g.AddEdge(5, 4)
	g.AddEdge(4, 6)
	g.AddEdge(5, 6)
	g.AddEdge(6, 7) // extra structure outside the pattern
	g.AddEdge(0, 3)
	m, ok := FindSubgraphIsomorphism(p, g, false)
	if !ok {
		t.Fatal("p1 must embed in G2")
	}
	if m[0] != 3 || m[3] != 6 {
		t.Errorf("mapping = %v, want A->3 and D->6", m)
	}
	if !(m[1] == 4 && m[2] == 5 || m[1] == 5 && m[2] == 4) {
		t.Errorf("B,C must map to {4,5}: %v", m)
	}
}

// Property: a random graph always embeds into a supergraph of itself
// (identity embedding exists), and the embedding found maps edges to edges.
func TestEmbedsInSupergraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		sub := NewGraph(n)
		super := NewGraph(n + rng.Intn(3))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.3 {
					sub.AddEdge(i, j)
					super.AddEdge(i, j)
				}
			}
		}
		// Extra edges in super.
		for k := 0; k < 3; k++ {
			v, u := rng.Intn(super.N), rng.Intn(super.N)
			if v != u {
				super.AddEdge(v, u)
			}
		}
		m, ok := FindSubgraphIsomorphism(sub, super, false)
		if !ok {
			return false
		}
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if sub.HasEdge(v, u) && !super.HasEdge(m[v], m[u]) {
					return false
				}
			}
		}
		// Injectivity.
		seen := map[int]bool{}
		for _, u := range m {
			if seen[u] {
				return false
			}
			seen[u] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
