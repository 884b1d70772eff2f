package depgraph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// fig1L1 reconstructs the paper's L1 example log (Fig. 1): traces of the
// order-processing workflow with B,C concurrent between A and D.
func fig1L1() *event.Log {
	return event.FromStrings(
		"A B C D E", // Trace 1
		"A C B D F", // Trace 2
		"A B C D E",
		"A C B D F",
		"A B C D E",
	)
}

func TestBuildVertexFrequencies(t *testing.T) {
	l := fig1L1()
	g := Build(l)
	a := l.Alphabet
	for _, name := range []string{"A", "B", "C", "D"} {
		if f := g.VertexFreq(a.Lookup(name)); f != 1.0 {
			t.Errorf("f(%s) = %v, want 1.0", name, f)
		}
	}
	if f := g.VertexFreq(a.Lookup("E")); !approx(f, 0.6) {
		t.Errorf("f(E) = %v, want 0.6", f)
	}
	if f := g.VertexFreq(a.Lookup("F")); !approx(f, 0.4) {
		t.Errorf("f(F) = %v, want 0.4", f)
	}
}

func TestBuildEdgeFrequencies(t *testing.T) {
	l := fig1L1()
	g := Build(l)
	a := l.Alphabet
	A, B, C, D := a.Lookup("A"), a.Lookup("B"), a.Lookup("C"), a.Lookup("D")
	if f := g.EdgeFreq(A, B); !approx(f, 0.6) {
		t.Errorf("f(AB) = %v, want 0.6", f)
	}
	if f := g.EdgeFreq(A, C); !approx(f, 0.4) {
		t.Errorf("f(AC) = %v, want 0.4", f)
	}
	if f := g.EdgeFreq(B, C); !approx(f, 0.6) {
		t.Errorf("f(BC) = %v, want 0.6", f)
	}
	if f := g.EdgeFreq(C, B); !approx(f, 0.4) {
		t.Errorf("f(CB) = %v, want 0.4", f)
	}
	if f := g.EdgeFreq(C, D); !approx(f, 0.6) {
		t.Errorf("f(CD) = %v, want 0.6", f)
	}
	if f := g.EdgeFreq(B, D); !approx(f, 0.4) {
		t.Errorf("f(BD) = %v, want 0.4", f)
	}
	if g.HasEdge(D, A) {
		t.Error("edge DA should not exist")
	}
	if f := g.EdgeFreq(D, A); f != 0 {
		t.Errorf("absent edge frequency = %v, want 0", f)
	}
}

func TestRepeatedAdjacentPairCountsOnce(t *testing.T) {
	// A B appears twice in the single trace; frequency must still be 1.0,
	// per Definition 1 ("at least once").
	l := event.FromStrings("A B A B")
	g := Build(l)
	a := l.Alphabet
	if f := g.EdgeFreq(a.Lookup("A"), a.Lookup("B")); f != 1.0 {
		t.Errorf("f(AB) = %v, want 1.0", f)
	}
	if f := g.EdgeFreq(a.Lookup("B"), a.Lookup("A")); f != 1.0 {
		t.Errorf("f(BA) = %v, want 1.0", f)
	}
}

func TestSelfLoop(t *testing.T) {
	l := event.FromStrings("A A B")
	g := Build(l)
	a := l.Alphabet
	if f := g.EdgeFreq(a.Lookup("A"), a.Lookup("A")); f != 1.0 {
		t.Errorf("self-loop f(AA) = %v, want 1.0", f)
	}
}

func TestEmptyLog(t *testing.T) {
	g := Build(event.NewLog())
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty log graph: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestAdjacency(t *testing.T) {
	l := event.FromStrings("A B", "A C")
	g := Build(l)
	a := l.Alphabet
	A := a.Lookup("A")
	succ := g.Successors(A)
	if len(succ) != 2 {
		t.Fatalf("A successors = %v, want 2", succ)
	}
	if succ[0] > succ[1] {
		t.Error("successors must be sorted")
	}
	if preds := g.Predecessors(a.Lookup("B")); len(preds) != 1 || preds[0] != A {
		t.Errorf("B predecessors = %v, want [A]", preds)
	}
}

func TestEdgesSorted(t *testing.T) {
	l := event.FromStrings("C B A", "B A C")
	g := Build(l)
	edges := g.Edges()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("edges not strictly sorted: %v before %v", a, b)
		}
	}
}

func TestDot(t *testing.T) {
	g := Build(event.FromStrings("A B"))
	dot := g.Dot("G")
	for _, frag := range []string{"digraph G", `"A" -> "B"`, "1.00"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("Dot output missing %q:\n%s", frag, dot)
		}
	}
}

// Property: every edge frequency is at most the frequency of both endpoints,
// and all frequencies lie in [0, 1].
func TestEdgeFreqBoundedByVertexFreqProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := event.NewLog()
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 1+rng.Intn(30); i++ {
			tr := make(event.Trace, 1+rng.Intn(12))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		g := Build(l)
		for _, e := range g.Edges() {
			f := g.EdgeFreq(e.From, e.To)
			if f <= 0 || f > 1 {
				return false
			}
			if f > g.VertexFreq(e.From)+1e-12 || f > g.VertexFreq(e.To)+1e-12 {
				return false
			}
		}
		for v := 0; v < n; v++ {
			if f := g.VertexFreq(event.ID(v)); f < 0 || f > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adjacency lists agree exactly with the edge map.
func TestAdjacencyConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := event.NewLog()
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 1+rng.Intn(20); i++ {
			tr := make(event.Trace, 1+rng.Intn(8))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		g := Build(l)
		count := 0
		for v := 0; v < n; v++ {
			for _, u := range g.Successors(event.ID(v)) {
				if !g.HasEdge(event.ID(v), u) {
					return false
				}
				count++
			}
		}
		if count != g.NumEdges() {
			return false
		}
		count = 0
		for v := 0; v < n; v++ {
			for _, u := range g.Predecessors(event.ID(v)) {
				if !g.HasEdge(u, event.ID(v)) {
					return false
				}
				count++
			}
		}
		return count == g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlphabetAccessor(t *testing.T) {
	l := event.FromStrings("A B")
	g := Build(l)
	if g.Alphabet() != l.Alphabet {
		t.Error("Alphabet() must return the log's alphabet")
	}
}

// refGraph is a test-local dependency graph built straight from the traces
// into maps, the way Build worked before its tables were precomputed.
type refGraph struct {
	vertex map[event.ID]float64
	edge   map[Edge]float64
}

func newRefGraph(l *event.Log) refGraph {
	r := refGraph{vertex: map[event.ID]float64{}, edge: map[Edge]float64{}}
	for _, t := range l.Traces {
		seenV, seenE := map[event.ID]bool{}, map[Edge]bool{}
		for i, v := range t {
			if !seenV[v] {
				seenV[v] = true
				r.vertex[v]++
			}
			if i+1 < len(t) {
				if e := (Edge{v, t[i+1]}); !seenE[e] {
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

// checkAgainstRef compares every accessor of g with the map reference over
// all n×n vertex pairs, so absent edges are probed as well as present ones.
func checkAgainstRef(t *testing.T, l *event.Log) {
	t.Helper()
	checkGraphAgainstRef(t, Build(l), l)
}

// checkGraphAgainstRef is checkAgainstRef for a graph g of l made by any path.
func checkGraphAgainstRef(t *testing.T, g *Graph, l *event.Log) {
	t.Helper()
	ref := newRefGraph(l)
	n := l.NumEvents()
	if g.NumVertices() != n || g.NumEdges() != len(ref.edge) {
		t.Fatalf("V=%d E=%d, reference V=%d E=%d", g.NumVertices(), g.NumEdges(), n, len(ref.edge))
	}
	var want []Edge
	for v := 0; v < n; v++ {
		a := event.ID(v)
		if g.VertexFreq(a) != ref.vertex[a] {
			t.Fatalf("f(%d) = %v, reference %v", a, g.VertexFreq(a), ref.vertex[a])
		}
		var succ, pred []event.ID
		for u := 0; u < n; u++ {
			b := event.ID(u)
			f, ok := ref.edge[Edge{a, b}]
			if g.EdgeFreq(a, b) != f || g.HasEdge(a, b) != ok {
				t.Fatalf("edge %d→%d: EdgeFreq %v HasEdge %v, reference %v %v",
					a, b, g.EdgeFreq(a, b), g.HasEdge(a, b), f, ok)
			}
			if ok {
				succ = append(succ, b)
				want = append(want, Edge{a, b})
			}
			if _, ok := ref.edge[Edge{b, a}]; ok {
				pred = append(pred, b)
			}
		}
		if !equalIDs(g.Successors(a), succ) || !equalIDs(g.Predecessors(a), pred) {
			t.Fatalf("vertex %d: Successors %v Predecessors %v, reference %v %v",
				a, g.Successors(a), g.Predecessors(a), succ, pred)
		}
	}
	// want was filled in (From, To) order, so this also pins the sort.
	edges, freqs := g.Edges(), g.EdgeFreqs()
	if len(edges) != len(want) || len(freqs) != len(want) {
		t.Fatalf("Edges() has %d entries, EdgeFreqs() %d, reference %d", len(edges), len(freqs), len(want))
	}
	for i, e := range want {
		if edges[i] != e || freqs[i] != ref.edge[e] {
			t.Fatalf("Edges()[%d] = %v (f %v), reference %v (f %v)", i, edges[i], freqs[i], e, ref.edge[e])
		}
	}
	// The frequency orders are permutations, ascending by frequency.
	byV, byE := g.VerticesByFreq(), g.EdgesByFreq()
	if len(byV) != n || len(byE) != len(want) {
		t.Fatalf("VerticesByFreq %d entries, EdgesByFreq %d", len(byV), len(byE))
	}
	seenV, seenE := make([]bool, n), make([]bool, len(want))
	for i, v := range byV {
		if seenV[v] || (i > 0 && g.VertexFreq(byV[i-1]) > g.VertexFreq(v)) {
			t.Fatalf("VerticesByFreq = %v is not an ascending permutation", byV)
		}
		seenV[v] = true
	}
	for i, k := range byE {
		if seenE[k] || (i > 0 && freqs[byE[i-1]] > freqs[k]) {
			t.Fatalf("EdgesByFreq = %v is not an ascending permutation", byE)
		}
		seenE[k] = true
	}
}

func equalIDs(a, b []event.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: every accessor agrees exactly with a map built directly from the
// traces, on random logs whose short alphabets force self-loops, repeated
// pairs and absent edges, and on a log with no traces.
func TestGraphMatchesTraceReferenceProperty(t *testing.T) {
	empty := event.NewLog()
	for _, name := range []string{"A", "B", "C"} {
		empty.Alphabet.Intern(name)
	}
	checkAgainstRef(t, empty)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		l := event.NewLog()
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < rng.Intn(25); i++ {
			tr := make(event.Trace, rng.Intn(10))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		checkAgainstRef(t, l)
	}
}

// Property: folding a log into Counts one trace at a time, while its
// alphabet grows, yields after every fold exactly the graph Build makes of
// the prefix, in every accessor, and that graph agrees with the map
// reference. Besides small alphabets, one log grows across the dense-table
// bound, so edges counted in the table carry over into the map, and one
// starts above the bound.
func TestCountsMatchBuildProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 80; iter++ {
		n, grow, traces := 1+rng.Intn(6), rng.Intn(4), 1+rng.Intn(24)
		switch iter {
		case 0:
			n, grow, traces = denseMax-2, 6, 24
		case 1:
			n, grow, traces = denseMax+40, 3, 16
		}
		l := event.NewLog()
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(fmt.Sprintf("e%d", i))
		}
		c := NewCounts(l.NumEvents())
		for step := 0; step < traces; step++ {
			if grow > 0 && rng.Intn(3) == 0 {
				grow--
				l.Alphabet.Intern(fmt.Sprintf("e%d", l.NumEvents()))
				c.Grow(l.NumEvents())
			}
			k := l.NumEvents()
			tr := make(event.Trace, rng.Intn(10))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(k))
				if rng.Intn(4) == 0 {
					// Favour the newest events, so grown ids take part.
					tr[j] = event.ID(k - 1 - rng.Intn(min(k, 3)))
				}
			}
			l.Append(tr)
			c.Add(tr)
			g := c.Graph(l.Alphabet)
			if d := Diff(g, Build(l)); d != "" {
				t.Fatalf("iter %d step %d (%d events): folded graph vs Build: %s", iter, step, l.NumEvents(), d)
			}
			checkGraphAgainstRef(t, g, l)
		}
		if iter == 0 && c.sparse == nil {
			t.Fatalf("%d events: the edge table never moved into the map", l.NumEvents())
		}
	}
}

// A graph must not change when its counts fold more traces later.
func TestCountsGraphIsImmutable(t *testing.T) {
	l := event.FromStrings("A B C", "B C A")
	c := Count(l)
	g := c.Graph(l.Alphabet)
	want := Build(l)
	l.AppendNames("C", "A", "D")
	c.Grow(l.NumEvents())
	c.Add(l.Traces[len(l.Traces)-1])
	if d := Diff(g, want); d != "" {
		t.Fatalf("graph changed after a later fold: %s", d)
	}
	if d := Diff(c.Graph(l.Alphabet), Build(l)); d != "" {
		t.Fatalf("graph after the fold vs Build: %s", d)
	}
}

func TestDiff(t *testing.T) {
	ab := Build(event.FromStrings("A B", "A B"))
	if d := Diff(ab, Build(event.FromStrings("A B", "A B"))); d != "" {
		t.Fatalf("equal graphs differ: %s", d)
	}
	for _, other := range []*event.Log{
		event.FromStrings("A B", "A"),        // same edges, other frequencies
		event.FromStrings("A B", "A B", "B"), // other vertex frequency
		event.FromStrings("A B C"),           // another alphabet
	} {
		if Diff(ab, Build(other)) == "" {
			t.Errorf("Diff found no difference from %v", other.Traces)
		}
	}
}
