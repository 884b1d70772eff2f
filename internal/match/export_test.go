package match

import (
	"context"

	"eventmatch/internal/event"
)

// DebugAssertions exposes whether the matchdebug assertions are compiled
// in; some of them allocate, so allocation gates skip under them.
const DebugAssertions = debugAssertions

// HBound exposes hBound to the external tests.
func (pr *Problem) HBound(kind BoundKind, m Mapping, used []bool) float64 {
	return pr.hBound(kind, m, used)
}

// HBoundOver is the parity oracle for hBound (see spectrumBound), for the
// tight and sharp kinds, with the U2 spectra supplied by the caller: vfreqs
// and efreqs are the sorted vertex and induced-edge frequencies of U2,
// fnU2 and feU2 their maxima.
func (pr *Problem) HBoundOver(kind BoundKind, m Mapping, used []bool, vfreqs, efreqs []float64, fnU2, feU2 float64) float64 {
	sb := &spectrumBound{pr: pr, used: used, fnU2: fnU2, feU2: feU2, vfreqs: vfreqs, efreqs: efreqs}
	return sb.sum(kind == BoundSharp, m)
}

// ChildHBound derives h of the child a→b of the node (parentM, parentUsed)
// the way A* does: the parent's bounds are cached through a pooled
// expansion, and the child's h is derived from them. The parent's mapping
// and used targets are not modified.
func ChildHBound(pr *Problem, kind BoundKind, parentM Mapping, parentUsed []bool, a, b event.ID) float64 {
	ex := getExpansion(pr, kind, nil, len(parentUsed))
	defer putExpansion(ex)
	ex.cur, ex.a = &node{m: parentM, used: parentUsed}, a
	ex.cacheBounds()
	m, used := parentM.Clone(), append([]bool(nil), parentUsed...)
	m[a], used[b] = b, true
	return ex.childH(m, used, b)
}

// HeuristicAdvancedReference is HeuristicAdvanced with the full-evaluation
// reference phases (see referencePhases) in place of the bounded ones.
func (pr *Problem) HeuristicAdvancedReference(opts Options) (Mapping, Stats, error) {
	return pr.runAdvanced(context.Background(), opts, referencePhases)
}
