package viz

import (
	"strings"
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/match"
)

func testLogs() (*event.Log, *event.Log, match.Mapping) {
	l1 := event.FromStrings("A B", "A B")
	l2 := event.FromStrings("x y", "x y")
	m := match.Mapping{0, 1}
	return l1, l2, m
}

func TestMappingDot(t *testing.T) {
	l1, l2, m := testLogs()
	dot := MappingDot(depgraph.Build(l1), depgraph.Build(l2), m)
	for _, frag := range []string{
		"digraph eventmatch",
		"cluster_l1",
		"cluster_l2",
		`label="A\n1.00"`,
		`label="x\n1.00"`,
		"l1_0 -> l1_1",   // G1 edge A->B
		"l2_0 -> l2_1",   // G2 edge x->y
		"l1_0 -> l2_0 [", // mapping edge
		"style=dashed",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("dot missing %q:\n%s", frag, dot)
		}
	}
}

func TestMappingDotSkipsUnmapped(t *testing.T) {
	l1, l2, _ := testLogs()
	m := match.Mapping{0, event.None}
	dot := MappingDot(depgraph.Build(l1), depgraph.Build(l2), m)
	if strings.Contains(dot, "l1_1 -> l2_") {
		t.Error("unmapped vertex should have no correspondence edge")
	}
}
