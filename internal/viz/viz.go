// Package viz renders matching results for human inspection: a Graphviz
// document showing both dependency graphs side by side with the discovered
// correspondence drawn between them (the picture the paper's Fig. 1 draws
// by hand).
package viz

import (
	"fmt"
	"strings"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/match"
)

// MappingDot renders G1 and G2 as two clusters with dashed correspondence
// edges for every mapped pair. The output is a complete digraph document
// for dot(1).
func MappingDot(g1, g2 *depgraph.Graph, m match.Mapping) string {
	var b strings.Builder
	b.WriteString("digraph eventmatch {\n")
	b.WriteString("  rankdir=LR;\n  compound=true;\n")
	writeCluster(&b, "L1", "cluster_l1", "l1", g1)
	writeCluster(&b, "L2", "cluster_l2", "l2", g2)
	for v1, v2 := range m {
		if v2 == event.None {
			continue
		}
		fmt.Fprintf(&b, "  %s -> %s [style=dashed, dir=none, color=gray, constraint=false];\n",
			nodeID("l1", v1), nodeID("l2", int(v2)))
	}
	b.WriteString("}\n")
	return b.String()
}

func writeCluster(b *strings.Builder, label, cluster, prefix string, g *depgraph.Graph) {
	fmt.Fprintf(b, "  subgraph %s {\n    label=%q;\n", cluster, label)
	a := g.Alphabet()
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(b, "    %s [label=\"%s\\n%.2f\"];\n",
			nodeID(prefix, v), a.Name(event.ID(v)), g.VertexFreq(event.ID(v)))
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(b, "    %s -> %s [label=\"%.2f\"];\n",
			nodeID(prefix, int(e.From)), nodeID(prefix, int(e.To)), g.EdgeFreq(e.From, e.To))
	}
	b.WriteString("  }\n")
}

func nodeID(prefix string, v int) string { return fmt.Sprintf("%s_%d", prefix, v) }
