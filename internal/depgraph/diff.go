package depgraph

import (
	"fmt"
	"math"
)

// Diff describes the first difference between two graphs in anything a
// caller can read: the alphabet's names, the vertex and edge frequencies
// (compared bit for bit), the edge list, the adjacency tables and the two
// frequency orders. It returns "" when the graphs are identical, and serves
// the differential tests and the matchdebug assertion that a folded graph
// equals a fresh Build.
func Diff(a, b *Graph) string {
	an, bn := a.alphabet.Names(), b.alphabet.Names()
	if i := firstDiff(an, bn); i >= 0 {
		return fmt.Sprintf("alphabet differs at %d: %d names vs %d", i, len(an), len(bn))
	}
	if a.n != b.n {
		return fmt.Sprintf("%d vertices vs %d", a.n, b.n)
	}
	for _, t := range []struct {
		name string
		i    int
	}{
		{"vertex frequency", firstFloatDiff(a.vertexFreq, b.vertexFreq)},
		{"edge", firstDiff(a.edges, b.edges)},
		{"edge frequency", firstFloatDiff(a.edgeFreq, b.edgeFreq)},
		{"out window", firstDiff(a.out, b.out)},
		{"successor", firstDiff(a.succ, b.succ)},
		{"in window", firstDiff(a.in, b.in)},
		{"predecessor", firstDiff(a.pred, b.pred)},
		{"predecessor frequency", firstFloatDiff(a.predFreq, b.predFreq)},
		{"vertex frequency order", firstDiff(a.vertexByFreq, b.vertexByFreq)},
		{"edge frequency order", firstDiff(a.edgeByFreq, b.edgeByFreq)},
	} {
		if t.i >= 0 {
			return fmt.Sprintf("%s differs at index %d", t.name, t.i)
		}
	}
	return ""
}

// firstDiff returns the first index where a and b differ, counting a length
// difference as a difference at the shorter length, or -1 when equal.
func firstDiff[T comparable](a, b []T) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func firstFloatDiff(a, b []float64) int {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	return firstDiff(bits(a), bits(b))
}
