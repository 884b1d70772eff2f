package pattern

import "eventmatch/internal/event"

// Incremental index maintenance for streaming appends.
//
// The batch constructors (NewTraceIndex, NewPatternIndex) stay the canonical
// definition of both indexes; Apply and Add are the streaming forms and are
// differential-tested bit-identical against a from-scratch rebuild after
// every append (see delta_test.go). The invariants that make the increments
// cheap:
//
//   - Alphabets are append-only, so existing event ids never move; alphabet
//     growth only adds all-zero rows at the end of the flat bitset array.
//   - The flat bitset layout (event e owns words[e·nw:(e+1)·nw]) must be
//     re-laid-out when nw = ⌈NumTraces/64⌉ grows — once every 64 appends —
//     or when the alphabet grew; both are a straight row-by-row copy.

// Apply folds one appended trace into the index. The delta must come from
// the append that produced the log's current last trace (Log.AppendDelta /
// AppendNamesDelta on the indexed log), and deltas must be applied in append
// order, exactly once each. Apply is not safe for concurrent use with
// readers; the streaming session layer serializes appends and searches on a
// single writer.
func (ix *TraceIndex) Apply(d event.Delta) {
	nEvents := ix.log.NumEvents()
	nTraces := ix.log.NumTraces()
	newNw := (nTraces + 63) / 64
	if newNw != ix.nw || nEvents != ix.nEvents {
		words := make([]uint64, nEvents*newNw)
		for e := 0; e < ix.nEvents; e++ {
			copy(words[e*newNw:], ix.words[e*ix.nw:(e+1)*ix.nw])
		}
		ix.words, ix.nw, ix.nEvents = words, newNw, nEvents
	}
	ti := d.TraceIndex
	w, bit := ti>>6, uint64(1)<<(uint(ti)&63)
	for _, e := range d.Events {
		ix.words[int(e)*ix.nw+w] |= bit
	}
}

// Add appends one pattern to the index, updating the per-event postings
// incrementally, and returns the new pattern's index. Appending keeps every
// posting list sorted because the new index is maximal.
func (ix *PatternIndex) Add(p *Pattern) int {
	i := len(ix.patterns)
	ix.patterns = append(ix.patterns, p)
	for _, v := range p.Events() {
		if int(v) >= len(ix.byEvent) {
			grown := make([][]int, int(v)+1)
			copy(grown, ix.byEvent)
			ix.byEvent = grown
		}
		ix.byEvent[v] = append(ix.byEvent[v], i)
	}
	return i
}
