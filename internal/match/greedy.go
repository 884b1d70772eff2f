package match

import (
	"context"
	"errors"
	"time"

	"eventmatch/internal/event"
)

// GreedyExpand is Heuristic-Simple (§5 opening): instead of keeping the whole
// A* frontier, each step expands only the single a→b child with the largest
// g+h and commits to it. Fast, but an early wrong commitment can never be
// undone — the deficiency Heuristic-Advanced addresses. See
// GreedyExpandContext.
func (pr *Problem) GreedyExpand(opts Options) (Mapping, Stats, error) {
	return pr.GreedyExpandContext(context.Background(), opts)
}

// GreedyExpandContext is GreedyExpand under a caller context. The search is
// anytime: on cancellation or budget exhaustion — polled inside the
// candidate-evaluation inner loop, not just once per expansion round, so a
// single expensive round cannot overshoot MaxDuration — the partial mapping
// is completed with cheap greedy commitments (no h-bound evaluation) and
// returned with Stats.Truncated set.
func (pr *Problem) GreedyExpandContext(ctx context.Context, opts Options) (Mapping, Stats, error) {
	tele := pr.newSearchTelemetry(opts)
	span := tele.greedyTime.Start()
	m, st, err := pr.greedyExpand(ctx, opts, tele)
	span.Stop()
	m, st = pr.applySeedFloor(opts, m, st, err)
	tele.noteRescore(pr, m)
	tele.finish(&st)
	return m, st, err
}

// greedyExpand is the loop behind GreedyExpandContext.
func (pr *Problem) greedyExpand(ctx context.Context, opts Options, tele *searchTelemetry) (m Mapping, st Stats, err error) {
	start := time.Now()
	stop := newStopper(ctx, opts, start)
	defer func() { m, st = pr.applyCheckpointFloor(stop, m, st, err) }()
	pr.applyWorkers(opts) // search stays sequential; trace scans use the pool
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	depthGoal := n1
	if n2 < depthGoal {
		depthGoal = n2
	}
	cur := &node{m: NewMapping(n1), used: make([]bool, n2)}
	// Checkpoint snapshots complete the last committed node, the same base
	// the truncation path uses when a budget fires between commitments.
	stop.onSnapshot(pr.snapshotNode(func() *node { return cur }, opts))
	ex := getExpansion(pr, opts.Bound, tele, n2)
	defer putExpansion(ex)
	for cur.depth < depthGoal {
		if reason, halt := stop.now(&st); halt {
			return pr.truncateGreedy(cur, opts, &st, reason, start)
		}
		st.Expanded++
		tele.greedyExpanded.Inc()
		ex.cur, ex.a = cur, pr.expandEvent(cur.depth, opts)
		ex.cacheBounds()
		var best *node
		for b := 0; b < n2; b++ {
			if cur.used[b] {
				continue
			}
			if reason, halt := stop.every(&st); halt {
				// Commit the best candidate seen so far, then finish the
				// rest of the mapping without the h-bound.
				base := cur
				if best != nil {
					base = best
				}
				return pr.truncateGreedy(base, opts, &st, reason, start)
			}
			st.Generated++
			tele.greedyGenerated.Inc()
			child := ex.expand(event.ID(b))
			if best == nil || child.g+child.h > best.g+best.h {
				// The displaced best is referenced by nothing; recycle it.
				pr.nodes.put(best)
				best = child
			} else {
				pr.nodes.put(child)
			}
		}
		if best == nil {
			st.Elapsed = time.Since(start)
			return nil, st, errors.New("match: no unmapped target event left")
		}
		// cur's state was copied into every child, and the checkpoint base
		// moves to best — the committed node can be recycled.
		prev := cur
		cur = best
		pr.nodes.put(prev)
	}
	st.Elapsed = time.Since(start)
	st.Score = cur.g
	return pr.stripArtificial(cur.m), st, nil
}

// truncateGreedy completes base's partial mapping greedily and returns it as
// the anytime result.
func (pr *Problem) truncateGreedy(base *node, opts Options, st *Stats, reason string, start time.Time) (Mapping, Stats, error) {
	m := base.m.Clone()
	used := append([]bool(nil), base.used...)
	pr.completeGreedy(m, used, opts)
	st.Truncated = true
	st.StopReason = reason
	st.Score = pr.Distance(m)
	st.Elapsed = time.Since(start)
	return pr.stripArtificial(m), *st, nil
}
