package event

// Set is a dense bitset over event IDs: bit v of the set (word v/64, bit
// v%64) is 1 iff event v is a member. It is the membership representation of
// the dense-ID kernel (see PERFORMANCE.md): alphabets intern names to
// contiguous IDs starting at 0, so a handful of words covers any realistic
// alphabet and a membership test is one shift, one mask and one load — no
// hashing, no map buckets, no pointer chasing.
//
// The zero value is an empty set. Sets grow on Add; Has never allocates and
// reports false for any ID outside the allocated words (including negative
// IDs such as None, via the unsigned conversion).
type Set struct {
	words []uint64
}

// Add inserts v, growing the set as needed. Negative IDs are ignored.
func (s *Set) Add(v ID) {
	if v < 0 {
		return
	}
	w := int(v >> 6)
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	s.words[w] |= 1 << (uint(v) & 63)
}

// Has reports whether v is a member. It never allocates; IDs outside the
// set's words (and negative IDs) report false.
func (s *Set) Has(v ID) bool {
	w := uint(v) >> 6
	return w < uint(len(s.words)) && s.words[w]&(1<<(uint(v)&63)) != 0
}
