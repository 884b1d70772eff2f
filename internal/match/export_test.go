package match

// HBound exposes hBound to the external tests.
func (pr *Problem) HBound(kind BoundKind, m Mapping, used []bool) float64 {
	return pr.hBound(kind, m, used)
}

// HBoundOver is hBound for the tight and sharp kinds with the U2 spectra
// supplied by the caller instead of filtered from G2's tables: vfreqs and
// efreqs are the sorted vertex and induced-edge frequencies of U2, fnU2 and
// feU2 their maxima.
func (pr *Problem) HBoundOver(kind BoundKind, m Mapping, used []bool, vfreqs, efreqs []float64, fnU2, feU2 float64) float64 {
	bc := &boundContext{pr: pr, used: used, fnU2: fnU2, feU2: feU2, vfreqs: vfreqs, efreqs: efreqs}
	return bc.sum(kind == BoundSharp, m)
}
