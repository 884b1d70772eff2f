package pattern

// NumWords reports the length of the index's flat bitset array.
func (ix *TraceIndex) NumWords() int { return len(ix.words) }
