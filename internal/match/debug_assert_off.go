//go:build !matchdebug

package match

import (
	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

// debugAssertions reports whether the matchdebug runtime assertions are
// compiled in. This is the normal build: assertions compile to nothing.
const debugAssertions = false

func assertInjective(label string, m Mapping) {}

func assertHeapInvariant(label string, q *nodeHeap) {}

func assertBoundFits(pi *pinfo, m Mapping, used []bool) {}

func assertChildBound(pr *Problem, kind BoundKind, m Mapping, used []bool, h float64) {}

func assertFoldedG2(g *depgraph.Graph, l *event.Log) {}
