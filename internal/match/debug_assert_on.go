//go:build matchdebug

package match

import (
	"fmt"
	"math"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

// debugAssertions reports whether the matchdebug runtime assertions are
// compiled in (`go test -tags matchdebug ./...`). In normal builds the
// assertion functions are empty and the constant is false, so the hot paths
// pay nothing.
const debugAssertions = true

// assertInjective panics when m maps two source events to the same target —
// the injectivity every search result and anytime completion must uphold.
func assertInjective(label string, m Mapping) {
	seen := make(map[event.ID]event.ID, len(m))
	for v1, v2 := range m {
		if v2 == event.None {
			continue
		}
		if prev, dup := seen[v2]; dup {
			panic(fmt.Sprintf("matchdebug: %s: mapping not injective: v1 %d and v1 %d both map to v2 %d",
				label, prev, v1, v2))
		}
		seen[v2] = event.ID(v1)
	}
}

// assertHeapInvariant panics when q violates the container/heap ordering:
// no child may sort before its parent. Checked after beam pruning, which
// rebuilds the heap wholesale with heap.Init.
func assertHeapInvariant(label string, q *nodeHeap) {
	n := q.Len()
	for child := 1; child < n; child++ {
		parent := (child - 1) / 2
		if q.Less(child, parent) {
			panic(fmt.Sprintf("matchdebug: %s: heap invariant broken: node %d (f=%g) sorts before its parent %d (f=%g)",
				label, child, (*q)[child].g+(*q)[child].h, parent, (*q)[parent].g+(*q)[parent].h))
		}
	}
}

// assertChildBound panics when h, a child's bound derived from its parent's
// cached bounds, differs in any bit from the full hBound of the child
// (mapping m, used targets used).
func assertChildBound(pr *Problem, kind BoundKind, m Mapping, used []bool, h float64) {
	if full := pr.hBound(kind, m, used); math.Float64bits(full) != math.Float64bits(h) {
		panic(fmt.Sprintf("matchdebug: derived %v bound of child %v is %v, full hBound %v", kind, m, h, full))
	}
}

// assertFoldedG2 panics when g, the target graph a stream append folded from
// trace counts, differs in any table or bit from a fresh Build of the log l.
func assertFoldedG2(g *depgraph.Graph, l *event.Log) {
	if d := depgraph.Diff(g, depgraph.Build(l)); d != "" {
		panic(fmt.Sprintf("matchdebug: folded G2 differs from Build of the grown log: %s", d))
	}
}
