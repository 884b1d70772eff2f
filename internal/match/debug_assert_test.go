//go:build matchdebug

package match

import (
	"container/heap"
	"fmt"
	"strings"
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

func TestDebugAssertionsEnabled(t *testing.T) {
	if !debugAssertions {
		t.Fatal("built with -tags matchdebug but debugAssertions is false")
	}
}

// mustPanic runs fn and requires a panic whose message contains substr.
func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q, got none", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

func TestAssertInjective(t *testing.T) {
	assertInjective("ok", Mapping{3, event.None, 4})
	assertInjective("ok-empty", NewMapping(5))
	mustPanic(t, "not injective", func() {
		assertInjective("dup", Mapping{3, event.None, 3})
	})
}

func TestAssertHeapInvariant(t *testing.T) {
	good := &nodeHeap{
		&node{g: 1}, &node{g: 5}, &node{g: 3}, &node{g: 2},
	}
	heap.Init(good)
	assertHeapInvariant("ok", good)

	// A max-heap whose child outranks its parent is corrupt.
	bad := &nodeHeap{&node{g: 1}, &node{g: 5}}
	mustPanic(t, "heap invariant", func() {
		assertHeapInvariant("corrupt", bad)
	})
}

func TestAssertChildBound(t *testing.T) {
	l := event.FromStrings("A B C", "A C B", "B C")
	pr, err := BuildProblem(l, l, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	m, used := NewMapping(3), make([]bool, 3)
	m[0], used[1] = 1, true
	h := pr.hBound(BoundSharp, m, used)
	assertChildBound(pr, BoundSharp, m, used, h)
	mustPanic(t, "full hBound", func() {
		assertChildBound(pr, BoundSharp, m, used, h+1e-12)
	})
}

func TestAssertFoldedG2(t *testing.T) {
	l := event.FromStrings("A B C", "A C B")
	assertFoldedG2(depgraph.Build(l), l)
	stale := depgraph.Build(l)
	l.AppendNames("B", "A")
	mustPanic(t, "folded G2", func() {
		assertFoldedG2(stale, l)
	})
}
