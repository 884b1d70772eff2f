package match

import (
	"sort"

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

// boundContext carries the per-search-node state shared by all pattern
// bounds: the unmapped target set U2 (every v2 with !used[v2]), its max
// vertex and edge frequencies, and the sorted frequency value sets used by
// the sharpened vertex/edge bounds. Its slices are scratch, reused across
// nodes by whoever owns the context (see boundPool).
type boundContext struct {
	pr   *Problem
	used []bool  // used[v2]: v2 is already an image, so not in U2
	fnU2 float64 // max vertex frequency within U2
	feU2 float64 // max edge frequency within the subgraph induced by U2

	vfreqs []float64 // sorted vertex frequencies of U2 members, one per member
	efreqs []float64 // sorted edge frequencies within the U2-induced subgraph

	images []event.ID // complexBound scratch: images of a pattern's mapped events
}

// reset refills bc for the node whose unmapped target set is encoded in
// used (used[v2] == true means v2 is already an image of the mapping). G2
// keeps its vertices and edges ordered by ascending frequency, so keeping
// the entries whose endpoints are all in U2 yields both spectra already
// sorted, with their maxima last.
func (bc *boundContext) reset(pr *Problem, used []bool) {
	g := pr.G2
	bc.pr, bc.used = pr, used
	bc.vfreqs = bc.vfreqs[:0]
	for _, v := range g.VerticesByFreq() {
		if !used[v] {
			bc.vfreqs = append(bc.vfreqs, g.VertexFreq(v))
		}
	}
	edges, freqs := g.Edges(), g.EdgeFreqs()
	bc.efreqs = bc.efreqs[:0]
	for _, i := range g.EdgesByFreq() {
		if e := edges[i]; !used[e.From] && !used[e.To] {
			bc.efreqs = append(bc.efreqs, freqs[i])
		}
	}
	bc.fnU2, bc.feU2 = 0, 0
	if k := len(bc.vfreqs); k > 0 {
		bc.fnU2 = bc.vfreqs[k-1]
	}
	if k := len(bc.efreqs); k > 0 {
		bc.feU2 = bc.efreqs[k-1]
	}
}

// bestSim returns max over f in the sorted candidate frequencies of
// Sim(f1, f). Sim(f1, ·) rises up to f1 and falls after it, so only the two
// values bracketing f1 matter.
func bestSim(f1 float64, sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, f1)
	best := 0.0
	if i < len(sorted) {
		if s := Sim(f1, sorted[i]); s > best {
			best = s
		}
	}
	if i > 0 {
		if s := Sim(f1, sorted[i-1]); s > best {
			best = s
		}
	}
	return best
}

// patternBound computes Δ(p, allowed) where allowed is M(mapped events of p)
// ∪ U2. m supplies the fixed images of p's already mapped events.
//
// For complex patterns this is Algorithm 2 / Table 2: Δ = 0 when the pattern
// cannot fit in the allowed set, otherwise 1 − (f1−fmin)/(f1+fmin) with
// fmin = min(fn, ω(p)·fe). Two sharpenings apply on top:
//
//   - Proposition 3 on the already-fixed part: if two mapped events of p
//     share a pattern edge whose image edge is absent from G2, Δ = 0.
//   - Vertex and edge patterns take their f2 from an actual frequency value
//     of the allowed set (a vertex frequency, respectively an edge
//     frequency), and Sim(f1, ·) is unimodal — so Δ is the similarity to
//     the nearest achievable frequency rather than the Table 2 cap. This is
//     what makes the tight bound prune hard when the two logs' frequency
//     spectra differ.
func (bc *boundContext) patternBound(pi *pinfo, m Mapping, sharp bool) float64 {
	pr := bc.pr
	mapped := 0
	for _, v := range pi.events {
		if m[v] != event.None {
			mapped++
		}
	}
	// Partially-fixed Prop. 3 cut.
	if len(pi.edges) > 0 {
		for _, e := range pi.edges {
			a, b := m[e.From], m[e.To]
			if a != event.None && b != event.None && !pr.G2.HasEdge(a, b) {
				return 0
			}
		}
	}
	// Size cut: the pattern needs |V(p)| distinct targets among allowed,
	// which holds |U2| = len(vfreqs) targets plus the fixed images.
	if len(pi.events) > len(bc.vfreqs)+mapped {
		return 0
	}
	if !sharp {
		// Paper-faithful Algorithm 2 for every pattern kind.
		return bc.complexBound(pi, m)
	}

	switch pi.kind {
	case KindVertex:
		v := pi.events[0]
		if img := m[v]; img != event.None {
			// Fully determined (shouldn't normally reach here — the caller
			// only bounds incomplete patterns — but self-loop edge patterns
			// share this path).
			return Sim(pi.f1, pr.f2(pi, m))
		}
		if len(pi.edges) == 1 {
			// Self-loop edge pattern: achievable f2 values are self-loop
			// frequencies within U2; fall back to the generic edge spectrum.
			return bestSim(pi.f1, bc.efreqs)
		}
		return bestSim(pi.f1, bc.vfreqs)
	case KindEdge:
		a, b := pi.events[0], pi.events[1]
		ma, mb := m[a], m[b]
		switch {
		case ma != event.None && mb != event.None:
			return Sim(pi.f1, pr.G2.EdgeFreq(ma, mb))
		case ma != event.None:
			// Achievable f2: frequencies of edges ma → U2.
			best := 0.0
			fs := pr.G2.SuccessorFreqs(ma)
			for i, y := range pr.G2.Successors(ma) {
				if !bc.used[y] {
					if s := Sim(pi.f1, fs[i]); s > best {
						best = s
					}
				}
			}
			return best
		case mb != event.None:
			best := 0.0
			fs := pr.G2.PredecessorFreqs(mb)
			for i, y := range pr.G2.Predecessors(mb) {
				if !bc.used[y] {
					if s := Sim(pi.f1, fs[i]); s > best {
						best = s
					}
				}
			}
			return best
		default:
			return bestSim(pi.f1, bc.efreqs)
		}
	default:
		return bc.complexBound(pi, m)
	}
}

// complexBound is Algorithm 2: fmin = min(fn, ω·fe) over the allowed set
// U2 ∪ images, where images are the targets of p's mapped events. (For a
// vertex pattern ω·fe does not apply; the fn term alone bounds it.)
func (bc *boundContext) complexBound(pi *pinfo, m Mapping) float64 {
	pr := bc.pr
	images := bc.images[:0]
	for _, v := range pi.events {
		if v2 := m[v]; v2 != event.None {
			images = append(images, v2)
		}
	}
	bc.images = images
	fn := bc.fnU2
	for _, x := range images {
		if f := pr.G2.VertexFreq(x); f > fn {
			fn = f
		}
	}
	fe := bc.feU2
	inImages := func(y event.ID) bool {
		for _, x := range images {
			if x == y {
				return true
			}
		}
		return false
	}
	for _, x := range images {
		fs := pr.G2.SuccessorFreqs(x)
		for i, y := range pr.G2.Successors(x) {
			if !bc.used[y] || inImages(y) || y == x {
				if fs[i] > fe {
					fe = fs[i]
				}
			}
		}
		fs = pr.G2.PredecessorFreqs(x)
		for i, y := range pr.G2.Predecessors(x) {
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
// not yet fully mapped. used marks the images already taken in V2.
func (pr *Problem) hBound(kind BoundKind, m Mapping, used []bool) float64 {
	switch kind {
	case BoundSimple:
		h := 0.0
		for i := range pr.patterns {
			if !fullyMapped(&pr.patterns[i], m) {
				h++
			}
		}
		return h
	default:
		bc := pr.bounds.get()
		bc.reset(pr, used)
		h := bc.sum(kind == BoundSharp, m)
		pr.bounds.put(bc)
		return h
	}
}

// sum adds up the pattern bounds of every pattern m leaves incomplete.
func (bc *boundContext) sum(sharp bool, m Mapping) float64 {
	h := 0.0
	for i := range bc.pr.patterns {
		pi := &bc.pr.patterns[i]
		if !fullyMapped(pi, m) {
			h += bc.patternBound(pi, m, sharp)
		}
	}
	return h
}
