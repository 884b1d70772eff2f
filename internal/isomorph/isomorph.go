// Package isomorph implements directed subgraph isomorphism search in the
// VF2 style: find an injective vertex mapping m from a pattern graph G1 into
// a target graph G2 such that (v,u) ∈ E1 ⇔ (m(v),m(u)) ∈ E2(restricted).
//
// The paper reduces subgraph isomorphism to optimal event matching with edge
// patterns (Theorem 1); this package provides the other side of that bridge
// for tests, and a general existence check used when reasoning about pattern
// embeddability (Proposition 3 discussion).
package isomorph

import "fmt"

// Graph is a simple directed graph on vertices 0..N-1.
type Graph struct {
	N    int
	adj  map[int64]bool
	succ [][]int
	pred [][]int
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{
		N:    n,
		adj:  make(map[int64]bool),
		succ: make([][]int, n),
		pred: make([][]int, n),
	}
}

func key(v, u int) int64 { return int64(v)<<32 | int64(uint32(u)) }

// AddEdge inserts the directed edge v→u. Duplicate insertions are ignored.
// It panics on out-of-range vertices (a programming error, not input error).
func (g *Graph) AddEdge(v, u int) {
	if v < 0 || v >= g.N || u < 0 || u >= g.N {
		panic(fmt.Sprintf("isomorph: edge (%d,%d) out of range [0,%d)", v, u, g.N))
	}
	if g.adj[key(v, u)] {
		return
	}
	g.adj[key(v, u)] = true
	g.succ[v] = append(g.succ[v], u)
	g.pred[u] = append(g.pred[u], v)
}

// HasEdge reports whether v→u is present.
func (g *Graph) HasEdge(v, u int) bool { return g.adj[key(v, u)] }

// OutDegree and InDegree report vertex degrees.
func (g *Graph) OutDegree(v int) int { return len(g.succ[v]) }

// InDegree reports the in-degree of v.
func (g *Graph) InDegree(v int) int { return len(g.pred[v]) }

// FindSubgraphIsomorphism searches for an injective mapping m (pattern vertex
// → target vertex) such that every pattern edge maps to a target edge AND
// every non-edge of the pattern maps to a non-edge among mapped vertices
// (induced subgraph isomorphism is NOT required: only edge preservation
// one-way if induced is false).
//
// With induced=false it checks the classic "monomorphism": (v,u) ∈ E1 ⇒
// (m(v),m(u)) ∈ E2. With induced=true it additionally requires the converse
// on mapped pairs, matching the ⇔ form used in the paper's Theorem 1 proof.
// It returns the mapping and true on success.
func FindSubgraphIsomorphism(pattern, target *Graph, induced bool) ([]int, bool) {
	if pattern.N > target.N {
		return nil, false
	}
	m := make([]int, pattern.N)
	used := make([]bool, target.N)
	for i := range m {
		m[i] = -1
	}
	order := degreeOrder(pattern)
	if match(pattern, target, order, 0, m, used, induced) {
		return m, true
	}
	return nil, false
}

// degreeOrder returns pattern vertices sorted by total degree descending —
// constraining the most-connected vertices first prunes the search fastest.
func degreeOrder(g *Graph) []int {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if g.OutDegree(a)+g.InDegree(a) < g.OutDegree(b)+g.InDegree(b) {
				order[j-1], order[j] = b, a
			}
		}
	}
	return order
}

func match(pattern, target *Graph, order []int, idx int, m []int, used []bool, induced bool) bool {
	if idx == len(order) {
		return true
	}
	v := order[idx]
	for u := 0; u < target.N; u++ {
		if used[u] {
			continue
		}
		if pattern.OutDegree(v) > target.OutDegree(u) || pattern.InDegree(v) > target.InDegree(u) {
			continue
		}
		if !consistent(pattern, target, v, u, m, induced) {
			continue
		}
		m[v] = u
		used[u] = true
		if match(pattern, target, order, idx+1, m, used, induced) {
			return true
		}
		m[v] = -1
		used[u] = false
	}
	return false
}

// consistent checks v→u against all already-mapped pattern vertices.
func consistent(pattern, target *Graph, v, u int, m []int, induced bool) bool {
	for w := 0; w < pattern.N; w++ {
		mw := m[w]
		if mw == -1 {
			continue
		}
		if pattern.HasEdge(v, w) && !target.HasEdge(u, mw) {
			return false
		}
		if pattern.HasEdge(w, v) && !target.HasEdge(mw, u) {
			return false
		}
		if induced {
			if !pattern.HasEdge(v, w) && target.HasEdge(u, mw) {
				return false
			}
			if !pattern.HasEdge(w, v) && target.HasEdge(mw, u) {
				return false
			}
		}
	}
	// Self-loop consistency.
	if pattern.HasEdge(v, v) && !target.HasEdge(u, u) {
		return false
	}
	if induced && !pattern.HasEdge(v, v) && target.HasEdge(u, u) {
		return false
	}
	return true
}

// Enumerate visits every monomorphism (or induced embedding, when induced is
// true) of the pattern in the target. visit receives the mapping (pattern
// vertex → target vertex); it must not retain the slice. Returning false
// from visit stops the enumeration early.
func Enumerate(pattern, target *Graph, induced bool, visit func(m []int) bool) {
	if pattern.N > target.N {
		return
	}
	m := make([]int, pattern.N)
	used := make([]bool, target.N)
	for i := range m {
		m[i] = -1
	}
	order := degreeOrder(pattern)
	var rec func(idx int) bool // returns true to stop early
	rec = func(idx int) bool {
		if idx == len(order) {
			return !visit(m)
		}
		v := order[idx]
		for u := 0; u < target.N; u++ {
			if used[u] {
				continue
			}
			if pattern.OutDegree(v) > target.OutDegree(u) || pattern.InDegree(v) > target.InDegree(u) {
				continue
			}
			if !consistent(pattern, target, v, u, m, induced) {
				continue
			}
			m[v] = u
			used[u] = true
			stop := rec(idx + 1)
			m[v] = -1
			used[u] = false
			if stop {
				return true
			}
		}
		return false
	}
	rec(0)
}
