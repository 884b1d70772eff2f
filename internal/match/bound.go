package match

import (
	"sort"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

// BoundKind selects the h-function used to over-estimate the contribution of
// not-yet-mapped patterns during search.
type BoundKind int

// Bound kinds: the §3.3 simple bound (1.0 per remaining pattern), the §4
// tight bound (Algorithm 2 / Table 2), and this implementation's sharp bound
// — an extension beyond the paper that exploits the discreteness of
// achievable vertex/edge frequencies (see patternBound).
const (
	BoundSimple BoundKind = iota
	BoundTight
	BoundSharp
)

func (b BoundKind) String() string {
	switch b {
	case BoundTight:
		return "tight"
	case BoundSharp:
		return "sharp"
	default:
		return "simple"
	}
}

// boundDep classifies how a pattern's bound at a node depends on the node's
// unmapped target set U2, so that the node's children, each of which maps
// one more source event a to one more target b, can reuse it (see
// expansion.childH).
type boundDep uint8

const (
	// depAlways: recomputed for every child. Complex patterns and every
	// pattern under the tight bound.
	depAlways boundDep = iota
	// depConstant: a zero that stays zero as U2 shrinks (the Prop. 3 cut).
	depConstant
	// depWitness: the value depends only on which of at most four witness
	// targets are still in U2, so it holds in every child whose b is not
	// one of them.
	depWitness
	// depMapped: the pattern is fully mapped, so it is not part of h.
	depMapped
	// depWithA: the pattern contains the expanded event a, so every child
	// either completes it or changes its mapped part.
	depWithA
)

// witnesses are the targets a depWitness bound depends on; unused slots
// hold event.None.
type witnesses [4]event.ID

var noWitnesses = witnesses{event.None, event.None, event.None, event.None}

func (w *witnesses) has(b event.ID) bool {
	return w[0] == b || w[1] == b || w[2] == b || w[3] == b
}

// setG2 installs g as the target dependency graph together with what the
// bounds derive from it: each pattern's start positions in g's ascending
// vertex and edge frequency orders. BuildProblem and StreamProblem.Append
// replace G2 only through here, so the positions never describe a stale
// graph.
func (pr *Problem) setG2(g *depgraph.Graph) {
	pr.G2 = g
	vs, ef, es := g.VerticesByFreq(), g.EdgeFreqs(), g.EdgesByFreq()
	for i := range pr.patterns {
		pi := &pr.patterns[i]
		pi.vpos = sort.Search(len(vs), func(k int) bool { return g.VertexFreq(vs[k]) >= pi.f1 })
		pi.epos = sort.Search(len(es), func(k int) bool { return ef[es[k]] >= pi.f1 })
	}
}

// boundContext evaluates pattern bounds at one search node: the node's
// unmapped target set U2 is every v2 with !used[v2]. It walks G2's
// frequency-ordered tables instead of materializing U2's spectra, and
// computes the maxima fn and fe of Algorithm 2 only when complexBound first
// asks for them. Contexts are scratch, reused across nodes through the
// problem's boundPool.
type boundContext struct {
	pr   *Problem
	used []bool // used[v2]: v2 is already an image, so not in U2

	maxima     bool    // fnU2 and feU2 are set
	fnU2, feU2 float64 // max vertex frequency in U2, max edge frequency within U2

	images []event.ID // complexBound scratch: images of a pattern's mapped events
}

// reset points bc at the node whose used targets are marked in used.
func (bc *boundContext) reset(pr *Problem, used []bool) {
	bc.pr, bc.used = pr, used
	bc.maxima = false
}

// maxFreqs returns fn and fe: the highest vertex frequency in U2 and the
// highest edge frequency within the subgraph U2 induces, 0 when there is
// none. They are the last U2 entries of G2's two frequency orders.
func (bc *boundContext) maxFreqs() (fn, fe float64) {
	if !bc.maxima {
		g := bc.pr.G2
		bc.fnU2, bc.feU2 = 0, 0
		vs := g.VerticesByFreq()
		if k := bc.vertexBelow(len(vs)); k >= 0 {
			bc.fnU2 = g.VertexFreq(vs[k])
		}
		es := g.EdgesByFreq()
		if k := bc.edgeBelow(len(es)); k >= 0 {
			bc.feU2 = g.EdgeFreqs()[es[k]]
		}
		bc.maxima = true
	}
	return bc.fnU2, bc.feU2
}

// vertexFrom returns the first position ≥ k in G2's vertex frequency order
// whose vertex is in U2, or -1.
func (bc *boundContext) vertexFrom(k int) int {
	vs := bc.pr.G2.VerticesByFreq()
	for ; k < len(vs); k++ {
		if !bc.used[vs[k]] {
			return k
		}
	}
	return -1
}

// vertexBelow returns the last position < k in G2's vertex frequency order
// whose vertex is in U2, or -1.
func (bc *boundContext) vertexBelow(k int) int {
	vs := bc.pr.G2.VerticesByFreq()
	for k--; k >= 0; k-- {
		if !bc.used[vs[k]] {
			return k
		}
	}
	return -1
}

// inU2 reports whether both endpoints of G2's edge i are in U2.
func (bc *boundContext) inU2(i int) bool {
	e := bc.pr.G2.Edges()[i]
	return !bc.used[e.From] && !bc.used[e.To]
}

// edgeFrom returns the first position ≥ k in G2's edge frequency order
// whose edge lies within U2, or -1.
func (bc *boundContext) edgeFrom(k int) int {
	es := bc.pr.G2.EdgesByFreq()
	for ; k < len(es); k++ {
		if bc.inU2(es[k]) {
			return k
		}
	}
	return -1
}

// edgeBelow returns the last position < k in G2's edge frequency order
// whose edge lies within U2, or -1.
func (bc *boundContext) edgeBelow(k int) int {
	es := bc.pr.G2.EdgesByFreq()
	for k--; k >= 0; k-- {
		if bc.inU2(es[k]) {
			return k
		}
	}
	return -1
}

// bestVertexSim returns max Sim(f1, f) over the vertex frequencies f of U2.
// Sim(f1, ·) rises up to f1 and falls after it, so only the two U2 values
// bracketing f1 matter: the first at or after pos, f1's position in G2's
// vertex order, and the last before it. Their vertices are the witnesses.
func (bc *boundContext) bestVertexSim(f1 float64, pos int, w *witnesses) float64 {
	g := bc.pr.G2
	vs := g.VerticesByFreq()
	best := 0.0
	if k := bc.vertexFrom(pos); k >= 0 {
		w[0] = vs[k]
		if s := Sim(f1, g.VertexFreq(vs[k])); s > best {
			best = s
		}
	}
	if k := bc.vertexBelow(pos); k >= 0 {
		w[1] = vs[k]
		if s := Sim(f1, g.VertexFreq(vs[k])); s > best {
			best = s
		}
	}
	return best
}

// bestEdgeSim is bestVertexSim over the frequencies of the edges within U2;
// the witnesses are the two bracketing edges' endpoints.
func (bc *boundContext) bestEdgeSim(f1 float64, pos int, w *witnesses) float64 {
	g := bc.pr.G2
	edges, freqs, es := g.Edges(), g.EdgeFreqs(), g.EdgesByFreq()
	best := 0.0
	if k := bc.edgeFrom(pos); k >= 0 {
		w[0], w[1] = edges[es[k]].From, edges[es[k]].To
		if s := Sim(f1, freqs[es[k]]); s > best {
			best = s
		}
	}
	if k := bc.edgeBelow(pos); k >= 0 {
		w[2], w[3] = edges[es[k]].From, edges[es[k]].To
		if s := Sim(f1, freqs[es[k]]); s > best {
			best = s
		}
	}
	return best
}

// bestNeighbourSim returns max Sim(f1, f) over the edges from a mapped
// endpoint to the neighbours ys in U2 (fs parallel to ys). The witness is
// the neighbour that sets the maximum.
func (bc *boundContext) bestNeighbourSim(f1 float64, ys []event.ID, fs []float64, w *witnesses) float64 {
	best := 0.0
	for i, y := range ys {
		if !bc.used[y] {
			if s := Sim(f1, fs[i]); s > best {
				best, w[0] = s, y
			}
		}
	}
	return best
}

// patternBound computes Δ(p, allowed) for a pattern m leaves incomplete,
// where allowed is M(mapped events of p) ∪ U2, and reports how the value
// depends on U2 (with the witnesses in w for depWitness).
//
// For complex patterns this is Algorithm 2 / Table 2: 1 − (f1−fmin)/(f1+fmin)
// with fmin = min(fn, ω(p)·fe). Algorithm 2 also sets Δ = 0 when U2 has
// fewer targets than p has unmapped events; that cut is left out because no
// search node can trigger it. Padding keeps |V2| ≥ |V1|, and the used
// targets of every node that A*, greedy and Heuristic-Advanced evaluate are
// exactly its mapping's images, so |U2| = |V2| − mapped ≥ |V1| − mapped,
// which is at least p's unmapped events. (Leaving a zero cut out can only
// raise Δ, so the bound stays an upper bound on any other input.) Two
// sharpenings apply on top:
//
//   - Proposition 3 on the already-fixed part: if two mapped events of p
//     share a pattern edge whose image edge is absent from G2, Δ = 0.
//   - Vertex and edge patterns take their f2 from an actual frequency value
//     of the allowed set (a vertex frequency, respectively an edge
//     frequency), and Sim(f1, ·) is unimodal — so Δ is the similarity to
//     the nearest achievable frequency rather than the Table 2 cap. This is
//     what makes the tight bound prune hard when the two logs' frequency
//     spectra differ.
func (bc *boundContext) patternBound(pi *pinfo, m Mapping, sharp bool, w *witnesses) (float64, boundDep) {
	*w = noWitnesses
	assertBoundFits(pi, m, bc.used)
	g := bc.pr.G2
	// Partially-fixed Prop. 3 cut.
	for _, e := range pi.edges {
		a, b := m[e.From], m[e.To]
		if a != event.None && b != event.None && !g.HasEdge(a, b) {
			return 0, depConstant
		}
	}
	if !sharp || pi.kind == KindComplex {
		// Paper-faithful Algorithm 2.
		return bc.complexBound(pi, m), depAlways
	}
	var h float64
	if pi.kind == KindVertex {
		if len(pi.edges) == 1 {
			// Self-loop edge pattern: achievable f2 values are self-loop
			// frequencies within U2; fall back to the generic edge spectrum.
			h = bc.bestEdgeSim(pi.f1, pi.epos, w)
		} else {
			h = bc.bestVertexSim(pi.f1, pi.vpos, w)
		}
	} else {
		switch ma, mb := m[pi.events[0]], m[pi.events[1]]; {
		case ma != event.None:
			// Achievable f2: frequencies of edges ma → U2.
			h = bc.bestNeighbourSim(pi.f1, g.Successors(ma), g.SuccessorFreqs(ma), w)
		case mb != event.None:
			h = bc.bestNeighbourSim(pi.f1, g.Predecessors(mb), g.PredecessorFreqs(mb), w)
		default:
			h = bc.bestEdgeSim(pi.f1, pi.epos, w)
		}
	}
	return h, depWitness
}

// complexBound is Algorithm 2: fmin = min(fn, ω·fe) over the allowed set
// U2 ∪ images, where images are the targets of p's mapped events. (For a
// vertex pattern ω·fe does not apply; the fn term alone bounds it.)
func (bc *boundContext) complexBound(pi *pinfo, m Mapping) float64 {
	g := bc.pr.G2
	images := bc.images[:0]
	for _, v := range pi.events {
		if v2 := m[v]; v2 != event.None {
			images = append(images, v2)
		}
	}
	bc.images = images
	fn, fe := bc.maxFreqs()
	for _, x := range images {
		if f := g.VertexFreq(x); f > fn {
			fn = f
		}
	}
	inImages := func(y event.ID) bool {
		for _, x := range images {
			if x == y {
				return true
			}
		}
		return false
	}
	for _, x := range images {
		fs := g.SuccessorFreqs(x)
		for i, y := range g.Successors(x) {
			if !bc.used[y] || inImages(y) || y == x {
				if fs[i] > fe {
					fe = fs[i]
				}
			}
		}
		fs = g.PredecessorFreqs(x)
		for i, y := range g.Predecessors(x) {
			if !bc.used[y] || inImages(y) {
				if fs[i] > fe {
					fe = fs[i]
				}
			}
		}
	}
	// Table 2 bounds: f2(M(p)) ≤ min(fn, ω(p)·fe); a single-event pattern
	// is bounded by vertex frequencies only.
	fmin := fn
	if len(pi.events) > 1 {
		if ofe := float64(pi.omega) * fe; ofe < fmin {
			fmin = ofe
		}
	}
	if fmin >= pi.f1 {
		return 1
	}
	return 1 - (pi.f1-fmin)/(pi.f1+fmin)
}

// hBound computes h(M, U1, U2): the summed upper bounds over all patterns
// not yet fully mapped, in pattern order. used marks the images already
// taken in V2. A* derives its children's h from their parent instead (see
// expansion.childH); this full evaluation serves the root, Heuristic-
// Advanced's candidate scoring and the checks that the derivation is exact.
func (pr *Problem) hBound(kind BoundKind, m Mapping, used []bool) float64 {
	h := 0.0
	if kind == BoundSimple {
		for i := range pr.patterns {
			if !fullyMapped(&pr.patterns[i], m) {
				h++
			}
		}
		return h
	}
	bc := pr.bounds.get()
	bc.reset(pr, used)
	var w witnesses
	for i := range pr.patterns {
		if pi := &pr.patterns[i]; !fullyMapped(pi, m) {
			v, _ := bc.patternBound(pi, m, kind == BoundSharp, &w)
			h += v
		}
	}
	pr.bounds.put(bc)
	return h
}
