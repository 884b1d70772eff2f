package match

import "sync"

// nodePool recycles A* / greedy search-tree nodes together with their
// mapping and used-target backing arrays. Deep searches churn through
// millions of nodes — every expansion clones a Mapping and a []bool — and
// beam pruning discards most of them almost immediately, so recycling the
// backing arrays removes the dominant GC pressure of the search.
//
// Recycling discipline (the invariants that make reuse safe):
//
//   - expand copies the parent's state into the child; nodes never share
//     backing arrays, so a node is exclusively owned by whoever holds it.
//   - A node may be recycled only once nothing references it: beam-prune
//     dropped tails, the previously popped node after the next pop replaces
//     it as the checkpoint base, and greedy's losing candidates.
//   - Goal / result nodes are never recycled — their mapping escapes to the
//     caller via stripArtificial, which works in place.
//
// The pool is a sync.Pool, so the goroutines of one A* expansion can draw
// from it concurrently and memory is reclaimed under GC pressure rather
// than pinned.
type nodePool struct {
	p sync.Pool
}

// get returns a recycled node (fields stale — the caller overwrites all of
// them) or a fresh zero node.
func (np *nodePool) get() *node {
	if nd, ok := np.p.Get().(*node); ok {
		return nd
	}
	return &node{}
}

// put recycles nd. The caller must guarantee nothing references nd, nd.m or
// nd.used anymore.
func (np *nodePool) put(nd *node) {
	if nd != nil {
		np.p.Put(nd)
	}
}

// boundPool recycles boundContext scratch. A context walks G2's
// frequency-ordered tables in place and keeps only a few lazily computed
// scalars and a complex pattern's image list, so a recycled context
// allocates nothing. Like nodePool it is a sync.Pool: each goroutine that
// evaluates bounds (the search goroutine caching an expansion's parent
// bounds, every A* child worker, every Heuristic-Advanced scorer, the
// greedy searches) holds its own context for the length of one evaluation,
// and G2's tables are only ever read.
type boundPool struct {
	p sync.Pool
}

// get returns a recycled context (stale — reset overwrites it) or a fresh
// one.
func (bp *boundPool) get() *boundContext {
	if bc, ok := bp.p.Get().(*boundContext); ok {
		return bc
	}
	return &boundContext{}
}

// put recycles bc, dropping its references to the caller's state.
func (bp *boundPool) put(bc *boundContext) {
	bc.pr, bc.used = nil, nil
	bp.p.Put(bc)
}
