//go:build !matchdebug

package match

import (
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

// TestDebugAssertionsDisabled pins the normal-build contract: the assertion
// layer compiles to nothing, so even violated invariants must not panic.
func TestDebugAssertionsDisabled(t *testing.T) {
	if debugAssertions {
		t.Fatal("debugAssertions is true in a build without -tags matchdebug")
	}
	assertInjective("noop", Mapping{3, 3})                                           // duplicate target
	assertHeapInvariant("noop", &nodeHeap{&node{g: 1}, &node{g: 5}})                 // corrupt heap
	assertChildBound(nil, BoundSharp, Mapping{0}, []bool{true}, -1)                  // wrong h
	assertFoldedG2(depgraph.Build(event.FromStrings("A")), event.FromStrings("B A")) // stale G2
}
