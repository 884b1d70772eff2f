package match

import (
	"context"
	"errors"

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
	return pr.anytime(ctx, opts, MetricGreedyTime, pr.greedyExpand)
}

// greedyExpand is the loop behind GreedyExpandContext. Stopped, it returns
// the last committed node's partial mapping, or the best candidate's when
// the stop came mid-round.
func (pr *Problem) greedyExpand(opts Options, stop *stopper, tele *searchTelemetry, st *Stats) (Mapping, error) {
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	depthGoal := n1
	if n2 < depthGoal {
		depthGoal = n2
	}
	cur := &node{m: NewMapping(n1), used: make([]bool, n2)}
	// Checkpoint snapshots complete the last committed node, the same base
	// a stop between commitments hands back.
	stop.onSnapshot(func() Mapping { return cur.m })
	ex := getExpansion(pr, opts.Bound, tele, n2)
	defer putExpansion(ex)
	for cur.depth < depthGoal {
		if _, halt := stop.now(st); halt {
			return cur.m, nil
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
			if _, halt := stop.every(st); halt {
				// Commit the best candidate seen so far; the frame
				// finishes the rest of the mapping without the h-bound.
				if best != nil {
					return best.m, nil
				}
				return cur.m, nil
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
			return nil, errors.New("match: no unmapped target event left")
		}
		// cur's state was copied into every child, and the checkpoint base
		// moves to best — the committed node can be recycled.
		prev := cur
		cur = best
		pr.nodes.put(prev)
	}
	st.Score = cur.g
	return pr.stripArtificial(cur.m), nil
}
