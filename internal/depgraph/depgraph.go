// Package depgraph builds the event dependency graph of Definition 1 in the
// paper: a labeled directed graph whose vertices are events and whose edges
// connect events that occur consecutively in at least one trace, labeled with
// normalized frequencies.
//
// For an event v, f(v,v) is the fraction of traces containing v. For an edge
// (v,u), f(v,u) is the fraction of traces where v is immediately followed by
// u at least once. Edges with frequency 0 are not materialized.
package depgraph

import (
	"fmt"
	"sort"
	"strings"

	"eventmatch/internal/event"
)

// Edge identifies a directed dependency edge between two events.
type Edge struct {
	From, To event.ID
}

// Graph is an event dependency graph G(V, E, f) over a log's alphabet.
//
// A Graph is immutable once built, and every table a search reads is built
// with it: the (From, To)-sorted edge list with its frequencies, the
// adjacency lists, and the vertex and edge orders by ascending frequency.
// Edges are sorted by From first, so the out-edges of v are the contiguous
// window [out[v], out[v+1]) of edges, and succ and edgeFreq restricted to
// that window are v's sorted successors and their frequencies. Lookups
// binary-search that window; nothing hashes.
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
	n := l.NumEvents()
	g := &Graph{
		alphabet:   l.Alphabet,
		n:          n,
		vertexFreq: make([]float64, n),
	}
	// Count each vertex and edge at most once per trace: vlast and elast
	// hold the 1-based number of the last trace that counted them.
	vlast := make([]int, n)
	var (
		ids   = make(map[Edge]int) // edge → first-seen index
		first []Edge
		count []float64
		elast []int
	)
	for ti, t := range l.Traces {
		stamp := ti + 1
		for i, e := range t {
			if vlast[e] != stamp {
				vlast[e] = stamp
				g.vertexFreq[e]++
			}
			if i+1 < len(t) {
				ed := Edge{e, t[i+1]}
				k, ok := ids[ed]
				if !ok {
					k = len(first)
					ids[ed] = k
					first = append(first, ed)
					count = append(count, 0)
					elast = append(elast, 0)
				}
				if elast[k] != stamp {
					elast[k] = stamp
					count[k]++
				}
			}
		}
	}
	g.edges = first
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i].From != g.edges[j].From {
			return g.edges[i].From < g.edges[j].From
		}
		return g.edges[i].To < g.edges[j].To
	})
	g.edgeFreq = make([]float64, len(g.edges))
	for i, e := range g.edges {
		g.edgeFreq[i] = count[ids[e]]
	}
	if l.NumTraces() > 0 {
		inv := 1 / float64(l.NumTraces())
		for i := range g.vertexFreq {
			g.vertexFreq[i] *= inv
		}
		for i := range g.edgeFreq {
			g.edgeFreq[i] *= inv
		}
	}
	g.buildTables()
	return g
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
	sort.SliceStable(g.vertexByFreq, func(i, j int) bool {
		return g.vertexFreq[g.vertexByFreq[i]] < g.vertexFreq[g.vertexByFreq[j]]
	})
	g.edgeByFreq = make([]int, len(g.edges))
	for i := range g.edgeByFreq {
		g.edgeByFreq[i] = i
	}
	sort.SliceStable(g.edgeByFreq, func(i, j int) bool {
		return g.edgeFreq[g.edgeByFreq[i]] < g.edgeFreq[g.edgeByFreq[j]]
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
