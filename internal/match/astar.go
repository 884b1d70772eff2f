package match

import (
	"container/heap"
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// Options control the search algorithms.
type Options struct {
	Bound BoundKind // h-function for A* and the greedy heuristic

	// MaxGenerated caps the number of candidate mappings M' processed
	// (Line 7 of Algorithm 1); 0 means unlimited.
	MaxGenerated int

	// MaxDuration caps wall-clock time; 0 means unlimited.
	MaxDuration time.Duration

	// MaxFrontier caps the A* open list size: whenever the frontier grows
	// past the cap it is beam-pruned to the best MaxFrontier nodes by g+h.
	// This bounds memory on large instances at the price of optimality —
	// a pruned search marks its result Stats.Truncated. 0 means unlimited.
	MaxFrontier int

	// Workers is the evaluation width: the children of each A* expansion
	// and the alternating trees and candidate scorings of each
	// HeuristicAdvanced round are spread over this many goroutines, and the
	// problem's frequency cache scans traces with the same pool. It sizes
	// the pool only; every value runs the same code, and 0 or 1 runs it on
	// the calling goroutine. Results are deterministic and identical for
	// every value (candidates are laid out and selected in id and row
	// order; only wall-clock-dependent truncation points can differ).
	Workers int

	// Telemetry, when non-nil, receives the search's instrumentation: the
	// astar.* / advanced.* / greedy.* effort counters and timers, plus the
	// cache.* and engine.* metrics of the problem's frequency evaluation.
	// The registry may be shared across runs (counters accumulate) and read
	// concurrently (progress lines, expvar). Nil disables instrumentation
	// at near-zero cost.
	Telemetry *telemetry.Registry

	// Progress, when non-nil, receives Progress snapshots (effort counters
	// and elapsed wall clock) while the search runs, at most one per
	// ProgressEvery. The hook is invoked synchronously from the search
	// goroutine at its cancellation poll sites — in A* at every pop, in
	// HeuristicAdvanced at every augmentation round boundary and inside its
	// anchoring and repair loops, in the greedy searches inside their
	// candidate loops — so it must be fast and must not block; copy the
	// snapshot out and return. Long-running services use it to surface
	// in-flight job progress without touching the search.
	Progress func(Progress)
	// ProgressEvery is the minimum interval between Progress calls; zero or
	// negative selects DefaultProgressEvery.
	ProgressEvery time.Duration

	// Checkpoint, when non-nil, receives periodic best-so-far snapshots —
	// a complete mapping plus its score — while the search runs, at most one
	// per CheckpointEvery. It rides the same poll sites as Progress and is
	// likewise invoked synchronously on the search goroutine: copy the
	// snapshot out (the mapping is already caller-owned) and return quickly.
	// Services persist these snapshots so an interrupted search can resume
	// via Seed instead of restarting from zero.
	Checkpoint func(Checkpoint)
	// CheckpointEvery is the minimum interval between Checkpoint calls; zero
	// or negative selects DefaultCheckpointEvery.
	CheckpointEvery time.Duration

	// Seed, when non-nil, warm-starts the search with a previously computed
	// mapping (typically a persisted Checkpoint.Mapping): the returned result
	// is guaranteed to score at least as high as the seed, even when a budget
	// fires immediately. The seed must be an injective mapping over L1 of the
	// problem's exact dimensions; invalid seeds are ignored. A valid seed is
	// the search's first incumbent: checkpoints are emitted only above it,
	// and if the search's own result scores below the incumbent, the
	// incumbent is returned instead (with the search's Stats).
	Seed Mapping

	// Ablation switches (all false in normal operation).

	// NaiveOrder expands V1 events in id order instead of the §3.1
	// most-patterns-first order.
	NaiveOrder bool
	// NoSeed disables HeuristicAdvanced's pattern-anchoring phase.
	NoSeed bool
	// NoRepair disables HeuristicAdvanced's pattern-guided repair phase.
	NoRepair bool
}

// Stats reports search effort.
type Stats struct {
	Expanded  int           // tree nodes popped and expanded
	Generated int           // candidate mappings M' processed (the paper's Fig. 7c metric)
	Elapsed   time.Duration // wall-clock time
	Score     float64       // pattern normal distance of the returned mapping

	// Truncated marks an anytime result: a budget ran out or the caller's
	// context was canceled before the algorithm finished, and the returned
	// mapping is the best complete mapping available at that moment rather
	// than the algorithm's full output.
	Truncated bool
	// StopReason names the exhausted budget when Truncated (one of the
	// Stop* constants); empty otherwise.
	StopReason string

	// Telemetry is the run's metric snapshot, taken as the search returned.
	// Nil unless Options.Telemetry was set. When the registry is shared
	// across several runs the snapshot holds the accumulated values.
	Telemetry *telemetry.Snapshot
}

// node is an A* search-tree node: a partial mapping with its g and h values.
type node struct {
	m     Mapping
	used  []bool
	depth int
	g, h  float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	fi, fj := h[i].g+h[i].h, h[j].g+h[j].h
	if fi != fj {
		return fi > fj // max-heap on the upper bound
	}
	return h[i].depth > h[j].depth // tie-break: deeper nodes first
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// AStar finds the optimal mapping maximizing the pattern normal distance, via
// the best-first search of Algorithm 1. See AStarContext.
func (pr *Problem) AStar(opts Options) (Mapping, Stats, error) {
	return pr.AStarContext(context.Background(), opts)
}

// AStarContext is AStar under a caller context. The returned mapping covers
// min(|V1|, |V2|) events.
//
// The search is anytime: if the context is canceled or a budget
// (MaxDuration, MaxGenerated) runs out, the best frontier node is greedily
// completed into a full mapping and returned with Stats.Truncated set —
// never a nil result. The context and MaxDuration are polled at every pop;
// MaxGenerated is charged before each expansion's children are built.
// MaxFrontier beam-prunes the open list to bound memory; a pruned run also
// reports Truncated, since optimality can no longer be proven.
func (pr *Problem) AStarContext(ctx context.Context, opts Options) (Mapping, Stats, error) {
	return pr.anytime(ctx, opts, MetricAStarTime, pr.astarSearch)
}

// astarSearch is the Algorithm 1 loop behind AStarContext. Stopped, it
// returns the best frontier node's partial mapping.
func (pr *Problem) astarSearch(opts Options, stop *stopper, tele *searchTelemetry, st *Stats) (Mapping, error) {
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	depthGoal := n1
	if n2 < depthGoal {
		depthGoal = n2
	}

	root := &node{
		m:    NewMapping(n1),
		used: make([]bool, n2),
	}
	tele.boundEvals.Inc()
	root.h = pr.hBound(opts.Bound, root.m, root.used)

	q := &nodeHeap{root}
	heap.Init(q)
	pruned := false

	// ex.cur is the node being expanded. Checkpoint snapshots complete it —
	// the best frontier node at the instant it was popped, the same base a
	// stop would hand back.
	ex := getExpansion(pr, opts.Bound, tele, n2)
	defer putExpansion(ex)
	stop.onSnapshot(func() Mapping { return ex.cur.m })

	for q.Len() > 0 {
		// The node popped one iteration ago is now referenced by nothing —
		// its children copied its state, the checkpoint base moves on — so
		// its backing arrays go back to the pool.
		pr.nodes.put(ex.cur)
		ex.cur = heap.Pop(q).(*node)
		cur := ex.cur
		if cur.depth == depthGoal {
			assertInjective("astar goal", cur.m)
			st.Score = cur.g
			if pruned {
				// The goal was reached, but pruning may have discarded the
				// optimal branch along the way.
				st.Truncated = true
				st.StopReason = StopMaxFrontier
			}
			return pr.stripArtificial(cur.m), nil
		}
		// Deadline and cancellation are polled once per pop, before any
		// child of cur is built. The frontier's best node by g+h is then
		// the heap root once cur is back on the heap.
		if _, halt := stop.now(st); halt {
			heap.Push(q, cur)
			return (*q)[0].m, nil
		}
		st.Expanded++
		tele.expanded.Inc()
		targets := ex.targets[:0]
		for b := 0; b < n2; b++ {
			if !cur.used[b] {
				targets = append(targets, event.ID(b))
			}
		}
		// The MaxGenerated budget is charged up front: the target list is
		// cut to what is left of it, and a cut list ends the search once its
		// children are on the frontier.
		budgetHit := false
		if opts.MaxGenerated > 0 {
			if rem := opts.MaxGenerated - st.Generated; rem < len(targets) {
				targets = targets[:max(rem, 0)]
				budgetHit = true
			}
		}
		ex.a, ex.targets = pr.expandEvent(cur.depth, opts), targets
		ex.cacheBounds()
		forEachIndex(opts.Workers, len(targets), ex.child)
		for _, child := range ex.children[:len(targets)] {
			heap.Push(q, child)
		}
		st.Generated += len(targets)
		tele.generated.Add(int64(len(targets)))
		if budgetHit {
			stop.every(st) // records StopMaxGenerated
			heap.Push(q, cur)
			return (*q)[0].m, nil
		}
		tele.frontierPeak.SetMax(int64(q.Len()))
		if opts.MaxFrontier > 0 && q.Len() > opts.MaxFrontier {
			tele.pruneEvents.Inc()
			tele.pruneDropped.Add(int64(q.Len() - opts.MaxFrontier))
			pruneFrontier(q, opts.MaxFrontier, &pr.nodes)
			pruned = true
		}
	}
	return nil, errors.New("match: search space exhausted without a complete mapping")
}

// expansion is the fan-out scratch of one A* search. Every expansion runs
// through it at every worker count: the unused targets of cur are listed in
// id order, cur's bound of every pattern is cached once on the search
// goroutine (cacheBounds), children[i] is built from targets[i] by child
// (on as many goroutines as Options.Workers allows, each deriving its h
// from the read-only cache), and the search pushes the children in that
// order, so the frontier evolves identically for every width. Expansions
// are pooled with their buffers and their child closure, so a search
// allocates none of this scratch once the pool is warm. GreedyExpand
// builds its candidates through the same cache and expand, one at a time.
type expansion struct {
	pr       *Problem
	bound    BoundKind
	tele     *searchTelemetry
	cur      *node    // the node being expanded
	a        event.ID // the V1 event cur's children map
	targets  []event.ID
	children []*node
	child    func(i int) // children[i] = the child of cur for a→targets[i]
	cache    []cachedBound
}

// cachedBound is cur's bound of one pattern, with what it depends on.
type cachedBound struct {
	h   float64
	dep boundDep
	w   witnesses
}

var expansions sync.Pool // *expansion

// getExpansion returns pooled scratch for one search over n2 targets.
func getExpansion(pr *Problem, bound BoundKind, tele *searchTelemetry, n2 int) *expansion {
	ex, _ := expansions.Get().(*expansion)
	if ex == nil {
		ex = &expansion{}
		ex.child = func(i int) {
			ex.children[i] = ex.expand(ex.targets[i])
		}
	}
	ex.pr, ex.bound, ex.tele = pr, bound, tele
	if cap(ex.children) < n2 {
		ex.targets = make([]event.ID, 0, n2)
		ex.children = make([]*node, n2)
	}
	if n := len(pr.patterns); cap(ex.cache) < n {
		ex.cache = make([]cachedBound, n)
	} else {
		ex.cache = ex.cache[:n]
	}
	return ex
}

// putExpansion recycles ex, dropping its references to the search.
func putExpansion(ex *expansion) {
	ex.pr, ex.tele, ex.cur = nil, nil, nil
	clear(ex.children)
	expansions.Put(ex)
}

// cacheBounds evaluates cur's bound of every pattern once, recording with
// each value the class that tells a child a→b whether it may reuse it. The
// patterns containing a are marked from the Ip index and not evaluated:
// every child changes them.
func (ex *expansion) cacheBounds() {
	if ex.bound == BoundSimple {
		return
	}
	pr, m := ex.pr, ex.cur.m
	withA := pr.pix.Containing(ex.a) // ascending pattern indices
	bc := pr.bounds.get()
	bc.reset(pr, ex.cur.used)
	for i := range ex.cache {
		c, pi := &ex.cache[i], &pr.patterns[i]
		switch {
		case len(withA) > 0 && withA[0] == i:
			withA = withA[1:]
			c.dep = depWithA
		case fullyMapped(pi, m):
			c.dep = depMapped
		default:
			c.h, c.dep = bc.patternBound(pi, m, ex.bound == BoundSharp, &c.w)
		}
	}
	pr.bounds.put(bc)
}

// childH derives h of cur's child a→b, whose mapping is m and whose used
// targets are used, from the cached bounds. The child's U2 is cur's minus
// b, and only patterns containing a see a different mapped part, so a
// pattern's bound is recomputed only if it contains a, is depAlways, or has
// b among its witnesses; every other term is cur's. The terms are added in
// pattern order, skipping the same fully mapped patterns as hBound, so the
// sum is bit-identical to hBound on the child.
func (ex *expansion) childH(m Mapping, used []bool, b event.ID) float64 {
	pr := ex.pr
	if ex.bound == BoundSimple {
		return pr.hBound(BoundSimple, m, used)
	}
	var bc *boundContext
	var w witnesses
	h := 0.0
	for i := range ex.cache {
		c := &ex.cache[i]
		switch c.dep {
		case depMapped:
			continue
		case depConstant, depWitness:
			if !c.w.has(b) {
				h += c.h
				continue
			}
		case depWithA:
			if fullyMapped(&pr.patterns[i], m) {
				continue
			}
		}
		if bc == nil {
			bc = pr.bounds.get()
			bc.reset(pr, used)
		}
		v, _ := bc.patternBound(&pr.patterns[i], m, ex.bound == BoundSharp, &w)
		h += v
	}
	if bc != nil {
		pr.bounds.put(bc)
	}
	return h
}

// pruneFrontier beam-prunes the open list down to its best max nodes by
// g+h, recycling the dropped tail into the node pool (dropped nodes are
// referenced only by the heap, so their backing arrays are free to reuse).
func pruneFrontier(q *nodeHeap, max int, pool *nodePool) {
	nodes := *q
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].g+nodes[i].h > nodes[j].g+nodes[j].h
	})
	for i := max; i < len(nodes); i++ {
		pool.put(nodes[i])
		nodes[i] = nil
	}
	*q = nodes[:max]
	heap.Init(q)
	assertHeapInvariant("pruned frontier", q)
}

// completeGreedy fills every unmapped source event of m, in expansion order,
// with the unused target whose commitment adds the largest incremental
// pattern contribution. It ignores all budgets — its cost is one greedy
// sweep, the price of always returning a complete anytime mapping — and
// skips the h-bound entirely (only newly completed patterns are scored).
func (pr *Problem) completeGreedy(m Mapping, used []bool, opts Options) {
	n1, n2 := len(m), pr.n2pad
	for depth := 0; depth < n1; depth++ {
		a := pr.expandEvent(depth, opts)
		if m[a] != event.None {
			continue
		}
		bestB := -1
		bestGain := 0.0
		for b := 0; b < n2; b++ {
			if used[b] {
				continue
			}
			m[a] = event.ID(b)
			gain := pr.addCompleted(0, a, m)
			m[a] = event.None
			if bestB < 0 || gain > bestGain {
				bestGain = gain
				bestB = b
			}
		}
		if bestB < 0 {
			return // no unused target left (|V2| < |V1| cannot happen post-padding)
		}
		m[a] = event.ID(bestB)
		used[bestB] = true
	}
}

// expandEvent picks the V1 event to expand at the given depth.
func (pr *Problem) expandEvent(depth int, opts Options) event.ID {
	if opts.NaiveOrder {
		return event.ID(depth)
	}
	return pr.order[depth]
}

// expand creates the child of cur obtained by appending a→b, computing g
// incrementally from the newly completed patterns (§3.2) and h from cur's
// cached bounds. ex.tele may carry all-nil handles (telemetry disabled).
// Children are drawn from the problem's node pool — their mapping and
// used-target arrays are recycled allocations, fully overwritten here.
func (ex *expansion) expand(b event.ID) *node {
	pr, cur, a := ex.pr, ex.cur, ex.a
	child := pr.nodes.get()
	child.m = append(child.m[:0], cur.m...)
	child.used = append(child.used[:0], cur.used...)
	child.depth = cur.depth + 1
	child.m[a] = b
	child.used[b] = true
	child.g = pr.addCompleted(cur.g, a, child.m)
	ex.tele.boundEvals.Inc()
	child.h = ex.childH(child.m, child.used, b)
	assertChildBound(pr, ex.bound, child.m, child.used, child.h)
	return child
}

// addCompleted adds to g, one by one in Ip order, the contributions of the
// patterns that mapping a has just completed in m: the patterns of Ip(a)
// that m maps fully (§3.2's P_new, since a was unmapped before).
func (pr *Problem) addCompleted(g float64, a event.ID, m Mapping) float64 {
	for _, i := range pr.pix.Containing(a) {
		if pi := &pr.patterns[i]; fullyMapped(pi, m) {
			g += pr.contribution(pi, m)
		}
	}
	return g
}

// BruteForce enumerates every injective mapping and returns the optimum. It
// exists to validate AStar on small instances and as the naive strawman of
// Section 3's opening complexity discussion.
func (pr *Problem) BruteForce() (Mapping, float64) {
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	depthGoal := n1
	if n2 < depthGoal {
		depthGoal = n2
	}
	best := -1.0
	var bestM Mapping
	m := NewMapping(n1)
	used := make([]bool, n2)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == depthGoal {
			if s := pr.Distance(m); s > best {
				best = s
				bestM = m.Clone()
			}
			return
		}
		a := pr.order[depth]
		for b := 0; b < n2; b++ {
			if used[b] {
				continue
			}
			used[b] = true
			m[a] = event.ID(b)
			rec(depth + 1)
			m[a] = event.None
			used[b] = false
		}
	}
	rec(0)
	return pr.stripArtificial(bestM), best
}
