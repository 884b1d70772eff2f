package match

import (
	"sort"

	"eventmatch/internal/event"
)

// spectrumBound is the parity oracle for hBound: the bound evaluation as it
// was before the bounds walked G2's frequency-ordered tables. It holds U2's
// vertex and induced-edge frequency spectra as sorted slices with their
// maxima, and bounds every incomplete pattern from them with a binary
// search. HBoundOver evaluates it on spectra the caller supplies.
type spectrumBound struct {
	pr   *Problem
	used []bool  // used[v2]: v2 is already an image, so not in U2
	fnU2 float64 // max vertex frequency within U2
	feU2 float64 // max edge frequency within the subgraph induced by U2

	vfreqs []float64 // sorted vertex frequencies of U2 members, one per member
	efreqs []float64 // sorted edge frequencies within the U2-induced subgraph

	images []event.ID // complexBound scratch
}

// oracleBestSim returns max over f in the sorted candidate frequencies of
// Sim(f1, f). Sim(f1, ·) rises up to f1 and falls after it, so only the two
// values bracketing f1 matter.
func oracleBestSim(f1 float64, sorted []float64) float64 {
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

// patternBound is patternBound computed from the materialized spectra.
func (sb *spectrumBound) patternBound(pi *pinfo, m Mapping, sharp bool) float64 {
	pr := sb.pr
	for _, e := range pi.edges {
		a, b := m[e.From], m[e.To]
		if a != event.None && b != event.None && !pr.G2.HasEdge(a, b) {
			return 0
		}
	}
	if !sharp {
		return sb.complexBound(pi, m)
	}
	switch pi.kind {
	case KindVertex:
		v := pi.events[0]
		if img := m[v]; img != event.None {
			return Sim(pi.f1, pr.f2(pi, m))
		}
		if len(pi.edges) == 1 {
			return oracleBestSim(pi.f1, sb.efreqs)
		}
		return oracleBestSim(pi.f1, sb.vfreqs)
	case KindEdge:
		a, b := pi.events[0], pi.events[1]
		ma, mb := m[a], m[b]
		switch {
		case ma != event.None && mb != event.None:
			return Sim(pi.f1, pr.G2.EdgeFreq(ma, mb))
		case ma != event.None:
			best := 0.0
			fs := pr.G2.SuccessorFreqs(ma)
			for i, y := range pr.G2.Successors(ma) {
				if !sb.used[y] {
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
				if !sb.used[y] {
					if s := Sim(pi.f1, fs[i]); s > best {
						best = s
					}
				}
			}
			return best
		default:
			return oracleBestSim(pi.f1, sb.efreqs)
		}
	default:
		return sb.complexBound(pi, m)
	}
}

// complexBound is Algorithm 2 over the spectra's maxima.
func (sb *spectrumBound) complexBound(pi *pinfo, m Mapping) float64 {
	pr := sb.pr
	images := sb.images[:0]
	for _, v := range pi.events {
		if v2 := m[v]; v2 != event.None {
			images = append(images, v2)
		}
	}
	sb.images = images
	fn := sb.fnU2
	for _, x := range images {
		if f := pr.G2.VertexFreq(x); f > fn {
			fn = f
		}
	}
	fe := sb.feU2
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
			if !sb.used[y] || inImages(y) || y == x {
				if fs[i] > fe {
					fe = fs[i]
				}
			}
		}
		fs = pr.G2.PredecessorFreqs(x)
		for i, y := range pr.G2.Predecessors(x) {
			if !sb.used[y] || inImages(y) {
				if fs[i] > fe {
					fe = fs[i]
				}
			}
		}
	}
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

// sum adds up the pattern bounds of every pattern m leaves incomplete.
func (sb *spectrumBound) sum(sharp bool, m Mapping) float64 {
	h := 0.0
	for i := range sb.pr.patterns {
		pi := &sb.pr.patterns[i]
		if !fullyMapped(pi, m) {
			h += sb.patternBound(pi, m, sharp)
		}
	}
	return h
}
