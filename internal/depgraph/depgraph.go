// Package depgraph builds the event dependency graph of Definition 1 in the
// paper: a labeled directed graph whose vertices are events and whose edges
// connect events that occur consecutively in at least one trace, labeled with
// normalized frequencies.
//
// For an event v, f(v,v) is the fraction of traces containing v. For an edge
// (v,u), f(v,u) is the fraction of traces where v is immediately followed by
// u at least once. Edges with frequency 0 are not materialized.
//
// Every graph is a fold of per-trace counts: Counts adds one trace at a time
// to raw vertex and edge trace-counts, and Counts.Graph divides them by the
// number of traces and derives the immutable Graph and its tables. Build is
// that fold over a whole log; a growing log keeps its Counts and folds only
// the traces it appends.
package depgraph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"eventmatch/internal/event"
)

// Edge identifies a directed dependency edge between two events.
type Edge struct {
	From, To event.ID
}

// Graph is an event dependency graph G(V, E, f) over a log's alphabet.
//
// A Graph is materialized from a log's Counts and is immutable once built;
// every table a search reads is built with it: the (From, To)-sorted edge
// list with its frequencies, the adjacency lists, and the vertex and edge
// orders by ascending frequency. Edges are sorted by From first, so the
// out-edges of v are the contiguous window [out[v], out[v+1]) of edges, and
// succ and edgeFreq restricted to that window are v's sorted successors and
// their frequencies. Lookups binary-search that window; nothing hashes.
type Graph struct {
	alphabet   *event.Alphabet
	n          int
	vertexFreq []float64

	edges    []Edge     // every edge, sorted by (From, To)
	edgeFreq []float64  // edgeFreq[i] = f(edges[i])
	out      []int      // out-edges of v: edges[out[v]:out[v+1]]
	succ     []event.ID // succ[i] = edges[i].To
	in       []int      // in-neighbours of v: pred[in[v]:in[v+1]]
	pred     []event.ID // sources grouped by target, each group sorted
	predFreq []float64  // predFreq[i] = f(pred[i] → its group's target)

	vertexByFreq []event.ID // vertex ids by ascending frequency, ties by id
	edgeByFreq   []int      // edge indices by ascending frequency, ties by (From, To)
}

// Build constructs the dependency graph of a log.
func Build(l *event.Log) *Graph {
	return Count(l).Graph(l.Alphabet)
}

// denseMax is the largest alphabet whose edge slots are looked up in a dense
// n×n table (256 KB of int32 at the bound); larger alphabets hash edges, so
// memory stays proportional to the edges that occur.
const denseMax = 256

// tally counts the traces an item occurs in; last is the 1-based number of
// the last trace that counted it, so a trace counts each item at most once.
type tally struct {
	count, last int
}

// Counts holds a log's raw dependency counts: for every vertex and every
// edge that has occurred, the number of traces it occurs in. A trace is
// folded in by Add in O(|trace|), and Graph materializes the normalized
// Graph, so a growing log pays per appended trace, not per log.
//
// Edges are numbered by slot in first-occurrence order, and each slot's
// edge and tally live in per-slot arrays. slotOf finds a slot through a
// dense n×n table, or through a map above denseMax events.
type Counts struct {
	n      int
	traces int
	vert   []tally // vert[v]: traces containing v

	edges []Edge  // edges[s]: the edge in slot s
	edge  []tally // edge[s]: traces where edges[s] occurs

	dense  []int32        // n ≤ denseMax: dense[from*n+to] = slot+1, 0 when absent
	sparse map[Edge]int32 // n > denseMax: edge → slot

	order []int32 // Graph scratch: slots in (From, To) order
}

// NewCounts returns empty counts over an alphabet of n events.
func NewCounts(n int) *Counts {
	c := &Counts{}
	c.Grow(n)
	return c
}

// Count folds every trace of l into new counts over its alphabet.
func Count(l *event.Log) *Counts {
	c := NewCounts(l.NumEvents())
	for _, t := range l.Traces {
		c.Add(t)
	}
	return c
}

// Grow extends the alphabet to n events; the new events have zero counts.
// Growing re-lays out the dense edge table, or moves it into the map once n
// passes denseMax. A smaller n is a no-op.
func (c *Counts) Grow(n int) {
	if n <= c.n {
		return
	}
	c.vert = append(c.vert, make([]tally, n-c.n)...)
	if n <= denseMax {
		dense := make([]int32, n*n)
		for from := 0; from < c.n; from++ {
			copy(dense[from*n:], c.dense[from*c.n:(from+1)*c.n])
		}
		c.dense = dense
	} else if c.sparse == nil {
		c.sparse = make(map[Edge]int32, len(c.edges))
		for s, e := range c.edges {
			c.sparse[e] = int32(s)
		}
		c.dense = nil
	}
	c.n = n
}

// slotOf returns the slot of the edge from→to, or -1 when the edge has not
// occurred.
func (c *Counts) slotOf(from, to event.ID) int32 {
	if c.sparse != nil {
		if s, ok := c.sparse[Edge{from, to}]; ok {
			return s
		}
		return -1
	}
	return c.dense[int(from)*c.n+int(to)] - 1
}

// newSlot gives the edge from→to, which has not occurred, an empty slot.
func (c *Counts) newSlot(from, to event.ID) int32 {
	s := int32(len(c.edges))
	c.edges = append(c.edges, Edge{from, to})
	c.edge = append(c.edge, tally{})
	if c.sparse != nil {
		c.sparse[Edge{from, to}] = s
	} else {
		c.dense[int(from)*c.n+int(to)] = s + 1
	}
	return s
}

// Add folds one trace into the counts. Every id in t must be below the
// alphabet size the counts were created or grown to.
func (c *Counts) Add(t event.Trace) {
	c.traces++
	stamp := c.traces
	for i, e := range t {
		if v := &c.vert[e]; v.last != stamp {
			v.last = stamp
			v.count++
		}
		if i+1 < len(t) {
			s := c.slotOf(e, t[i+1])
			if s < 0 {
				s = c.newSlot(e, t[i+1])
			}
			if ed := &c.edge[s]; ed.last != stamp {
				ed.last = stamp
				ed.count++
			}
		}
	}
}

// Graph materializes the dependency graph of the counts, labeled with a,
// which must name the counts' n events. Every frequency is its count times
// 1/traces. The graph shares nothing with the counts, so later folds leave
// it unchanged.
func (c *Counts) Graph(a *event.Alphabet) *Graph {
	g := &Graph{
		alphabet:   a,
		n:          c.n,
		vertexFreq: make([]float64, c.n),
	}
	inv := 0.0
	if c.traces > 0 {
		inv = 1 / float64(c.traces)
	}
	for v, t := range c.vert {
		g.vertexFreq[v] = float64(t.count) * inv
	}
	c.order = c.sortedSlots(c.order[:0])
	g.edges = make([]Edge, len(c.order))
	g.edgeFreq = make([]float64, len(c.order))
	for i, s := range c.order {
		g.edges[i] = c.edges[s]
		g.edgeFreq[i] = float64(c.edge[s].count) * inv
	}
	g.buildTables()
	return g
}

// sortedSlots appends every slot to dst in (From, To) order of its edge. A
// dense table yields that order row by row; map slots are sorted.
func (c *Counts) sortedSlots(dst []int32) []int32 {
	if c.sparse == nil {
		for _, s := range c.dense {
			if s != 0 {
				dst = append(dst, s-1)
			}
		}
		return dst
	}
	for s := range c.edges {
		dst = append(dst, int32(s))
	}
	slices.SortFunc(dst, func(i, j int32) int {
		a, b := c.edges[i], c.edges[j]
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
	return dst
}

// buildTables derives the adjacency windows and the frequency orders from
// the sorted edge list.
func (g *Graph) buildTables() {
	g.out = make([]int, g.n+1)
	g.in = make([]int, g.n+1)
	g.succ = make([]event.ID, len(g.edges))
	for i, e := range g.edges {
		g.out[e.From+1]++
		g.in[e.To+1]++
		g.succ[i] = e.To
	}
	for v := 0; v < g.n; v++ {
		g.out[v+1] += g.out[v]
		g.in[v+1] += g.in[v]
	}
	// Edges arrive in ascending From order, so each target's group of
	// sources fills up sorted.
	g.pred = make([]event.ID, len(g.edges))
	g.predFreq = make([]float64, len(g.edges))
	next := append([]int(nil), g.in[:g.n]...)
	for i, e := range g.edges {
		g.pred[next[e.To]] = e.From
		g.predFreq[next[e.To]] = g.edgeFreq[i]
		next[e.To]++
	}

	g.vertexByFreq = make([]event.ID, g.n)
	for v := range g.vertexByFreq {
		g.vertexByFreq[v] = event.ID(v)
	}
	slices.SortStableFunc(g.vertexByFreq, func(a, b event.ID) int {
		return cmp.Compare(g.vertexFreq[a], g.vertexFreq[b])
	})
	g.edgeByFreq = make([]int, len(g.edges))
	for i := range g.edgeByFreq {
		g.edgeByFreq[i] = i
	}
	slices.SortStableFunc(g.edgeByFreq, func(a, b int) int {
		return cmp.Compare(g.edgeFreq[a], g.edgeFreq[b])
	})
}

// NumVertices reports the number of vertices (the alphabet size).
func (g *Graph) NumVertices() int { return g.n }

// NumEdges reports the number of edges with nonzero frequency.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Alphabet returns the alphabet the graph was built over.
func (g *Graph) Alphabet() *event.Alphabet { return g.alphabet }

// VertexFreq returns f(v,v), the normalized frequency of event v.
func (g *Graph) VertexFreq(v event.ID) float64 { return g.vertexFreq[v] }

// edgeIndex returns the position of v→u in the edge list, or -1 if the edge
// is absent or either endpoint is not a vertex.
func (g *Graph) edgeIndex(v, u event.ID) int {
	if uint(v) >= uint(g.n) {
		return -1
	}
	lo, hi := g.out[v], g.out[v+1]
	end := hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.succ[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.succ[lo] == u {
		return lo
	}
	return -1
}

// EdgeFreq returns f(v,u) for the edge v→u, or 0 if the edge is absent.
func (g *Graph) EdgeFreq(v, u event.ID) float64 {
	if i := g.edgeIndex(v, u); i >= 0 {
		return g.edgeFreq[i]
	}
	return 0
}

// HasEdge reports whether v→u has nonzero frequency.
func (g *Graph) HasEdge(v, u event.ID) bool { return g.edgeIndex(v, u) >= 0 }

// Successors returns the out-neighbours of v in ascending id order. The
// returned slice is shared and must not be modified.
func (g *Graph) Successors(v event.ID) []event.ID {
	return g.succ[g.out[v]:g.out[v+1]:g.out[v+1]]
}

// Predecessors returns the in-neighbours of v in ascending id order. The
// returned slice is shared and must not be modified.
func (g *Graph) Predecessors(v event.ID) []event.ID {
	return g.pred[g.in[v]:g.in[v+1]:g.in[v+1]]
}

// SuccessorFreqs returns the frequencies of v's out-edges, parallel to
// Successors(v). The returned slice is shared and must not be modified.
func (g *Graph) SuccessorFreqs(v event.ID) []float64 {
	return g.edgeFreq[g.out[v]:g.out[v+1]:g.out[v+1]]
}

// PredecessorFreqs returns the frequencies of v's in-edges, parallel to
// Predecessors(v). The returned slice is shared and must not be modified.
func (g *Graph) PredecessorFreqs(v event.ID) []float64 {
	return g.predFreq[g.in[v]:g.in[v+1]:g.in[v+1]]
}

// Edges returns all edges sorted by (From, To). The slice is the graph's
// own, shared by every caller: it must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeFreqs returns the edge frequencies in Edges() order: EdgeFreqs()[i] is
// f(Edges()[i]). The slice is shared and must not be modified.
func (g *Graph) EdgeFreqs() []float64 { return g.edgeFreq }

// VerticesByFreq returns every vertex id ordered by ascending frequency,
// ties by id. The slice is shared and must not be modified.
func (g *Graph) VerticesByFreq() []event.ID { return g.vertexByFreq }

// EdgesByFreq returns the indices into Edges() ordered by ascending edge
// frequency, ties in (From, To) order. The slice is shared and must not be
// modified.
func (g *Graph) EdgesByFreq() []int { return g.edgeByFreq }

// Dot renders the graph in Graphviz dot syntax with frequency labels; useful
// for debugging and documentation (mirrors the paper's Fig. 1e/1f).
func (g *Graph) Dot(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", name)
	for v := 0; v < g.n; v++ {
		fmt.Fprintf(&b, "  %q [label=\"%s\\n%.2f\"];\n", g.alphabet.Name(event.ID(v)), g.alphabet.Name(event.ID(v)), g.vertexFreq[v])
	}
	for i, e := range g.edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%.2f\"];\n", g.alphabet.Name(e.From), g.alphabet.Name(e.To), g.edgeFreq[i])
	}
	b.WriteString("}\n")
	return b.String()
}
