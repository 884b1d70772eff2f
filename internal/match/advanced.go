package match

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// HeuristicAdvanced is Algorithm 3: Kuhn–Munkres-style matching guided by the
// estimated per-pair scores θ (Formula 2), where each augmentation step
// considers every augmenting path in every maximal alternating tree
// (Algorithm 4) and commits the one with the best g+h.
//
// For the special case of vertex-only patterns the result is the optimal
// matching (Proposition 6). See HeuristicAdvancedContext.
func (pr *Problem) HeuristicAdvanced(opts Options) (Mapping, Stats, error) {
	return pr.HeuristicAdvancedContext(context.Background(), opts)
}

// HeuristicAdvancedContext is HeuristicAdvanced under a caller context. The
// heuristic is anytime: cancellation and budgets are polled inside the
// anchoring and repair inner loops (every few hundred candidate
// evaluations) and before every candidate scoring of an augmentation round,
// so one expensive round cannot overshoot MaxDuration. The Progress and
// Checkpoint hooks fire at those anchoring and repair poll sites and at
// augmentation round boundaries. On a stop mid-augmentation the round is
// discarded and the matching committed so far is completed greedily;
// mid-repair the current (already complete) matching is returned as-is.
// Either way the result carries Stats.Truncated instead of an error.
func (pr *Problem) HeuristicAdvancedContext(ctx context.Context, opts Options) (Mapping, Stats, error) {
	return pr.runAdvanced(ctx, opts, boundedPhases)
}

// advancedPhases are the two phases of Heuristic-Advanced that read
// complex-pattern frequencies: the choice among a pattern's ranked
// embeddings while anchoring, and the repair hill-climb. boundedPhases skip
// every frequency an admissible bound already decides; the tests run the
// full-evaluation references through the same loop and require identical
// decisions.
type advancedPhases struct {
	pickEmbedding embeddingPicker
	repair        func(pr *Problem, m Mapping, st *Stats, stop *stopper, tele *searchTelemetry)
}

var boundedPhases = advancedPhases{pickEmbedding: (*seedContext).pickEmbedding, repair: (*Problem).repair}

// runAdvanced is HeuristicAdvancedContext with the given phases.
func (pr *Problem) runAdvanced(ctx context.Context, opts Options, ph advancedPhases) (Mapping, Stats, error) {
	return pr.anytime(ctx, opts, MetricAdvancedTime, func(opts Options, stop *stopper, tele *searchTelemetry, st *Stats) (Mapping, error) {
		return pr.heuristicAdvanced(opts, stop, tele, st, ph)
	})
}

// heuristicAdvanced is the Algorithm 3 loop behind HeuristicAdvancedContext.
// Stopped, it returns the matching it reached: the committed augmentations
// (partial) or the repaired matching (complete).
func (pr *Problem) heuristicAdvanced(opts Options, stop *stopper, tele *searchTelemetry, st *Stats, ph advancedPhases) (Mapping, error) {
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	n := n1
	if n2 > n {
		n = n2 // pad with dummy events so |V1| == |V2| (§5.1.1)
	}
	if n == 0 {
		return Mapping{}, nil
	}
	theta := pr.thetaMatrix(n)

	// Initial feasible labeling: ℓ(v1) = max θ(v1, ·), ℓ(v2) = 0.
	lx := make([]float64, n)
	ly := make([]float64, n)
	for i := 0; i < n; i++ {
		best := math.Inf(-1)
		for j := 0; j < n; j++ {
			if theta[i][j] > best {
				best = theta[i][j]
			}
		}
		lx[i] = best
	}
	matchX := make([]int, n)
	matchY := make([]int, n)
	for i := range matchX {
		matchX[i] = -1
		matchY[i] = -1
	}

	// Pattern anchoring: before any augmentation, embed the complex patterns'
	// graph forms into G2 and commit the best-scoring embeddings. This puts
	// the paper's thesis — complex patterns as the discriminative feature —
	// directly into the heuristic's starting point, so the augmentation loop
	// only has to fill in the rest. Vertex/edge-only problems are unaffected
	// (no complex patterns), keeping Proposition 6 intact.
	if !opts.NoSeed {
		anchors := pr.seedFromPatterns(st, stop, ph.pickEmbedding)
		tele.seedAnchors.Add(int64(len(anchors)))
		for _, pair := range anchors {
			matchX[pair[0]] = pair[1]
			matchY[pair[1]] = pair[0]
		}
	}

	// Checkpoint snapshots during augmentation read the committed matching
	// (matchX is only reassigned between rounds on this goroutine), the
	// same partial mapping a stop hands back.
	stop.onSnapshot(func() Mapping { return matched(matchX, n1, n2) })

	for round := 0; round < n; round++ {
		if _, halt := stop.now(st); halt {
			break
		}
		tele.rounds.Inc()
		next, ok := pr.augmentRound(theta, lx, ly, matchX, matchY, n1, n2, st, opts, stop, tele)
		if !ok {
			break // matching complete, or a budget fired mid-round
		}
		matchX, matchY, lx, ly = next.matchX, next.matchY, next.lx, next.ly
	}

	m := matched(matchX, n1, n2)
	if _, halt := stop.halted(); halt {
		// The augmentation (or seeding) was cut short: the frame completes
		// the matching greedily, and the repair phase is skipped.
		return m, nil
	}
	pr.stripArtificial(m)
	mappedCount := 0
	for _, v := range m {
		if v != event.None {
			mappedCount++
		}
	}
	want := n1
	if pr.n2real < want {
		want = pr.n2real
	}
	if mappedCount != want {
		return nil, errors.New("match: heuristic failed to produce a perfect matching")
	}
	// Repair phase — the paper's second intuition (§5.1): "modify the
	// previously determined matching M referring to the patterns". Once the
	// augmentation loop has produced a perfect matching, pattern-guided
	// pairwise swaps (and moves onto unused targets) fix early erroneous
	// commitments that augmenting paths alone did not revisit. Each swap is
	// evaluated incrementally through the Ip index.
	if !opts.NoRepair {
		// Repair mutates the complete mapping in place; between poll sites
		// it is always a valid complete mapping, which a checkpoint
		// snapshot's completion leaves as it is and only scores.
		stop.onSnapshot(func() Mapping { return m })
		ph.repair(pr, m, st, stop, tele)
		if _, halt := stop.halted(); halt {
			return m, nil // the frame scores it
		}
	}
	assertInjective("advanced result", m)
	st.Score = pr.Distance(m)
	return m, nil
}

// matched returns the mapping of the padded matching matchX restricted to
// the n1 real rows and n2 padded targets; dummy columns are left unmapped.
func matched(matchX []int, n1, n2 int) Mapping {
	m := NewMapping(n1)
	for i := 0; i < n1; i++ {
		if j := matchX[i]; j >= 0 && j < n2 {
			m[i] = event.ID(j)
		}
	}
	return m
}

// roundResult is the state one augmentation round of HeuristicAdvanced
// commits: the augmented matching and the winning tree's labeling.
type roundResult struct {
	matchX, matchY []int
	lx, ly         []float64
}

// augmentRound runs one augmentation round of HeuristicAdvancedContext
// across opts.Workers goroutines. Phase 1 grows the maximal alternating tree
// of every unmatched row (alternatingTree is a pure function of the round's
// shared state). Phase 2 flattens the (row, free column) candidates in the
// §3.1 row order — most patterns first — and charges the
// generated-candidates budget. Phase 3 scores every candidate by g+h. The
// winner is the first candidate attaining the maximum score, so score ties
// go to pattern-rich rows, whose candidates carry the most evidence, and the
// round is deterministic for every worker count.
//
// ok is false when the round commits nothing: every row is matched, no
// augmenting candidate exists, or a budget fired. The deadline and the
// caller's context are checked before each candidate is scored; a stop
// discards the whole round and leaves its reason in stop.
func (pr *Problem) augmentRound(theta [][]float64, lx, ly []float64, matchX, matchY []int, n1, n2 int, st *Stats, opts Options, stop *stopper, tele *searchTelemetry) (res roundResult, ok bool) {
	n := len(lx)
	var rows []int
	for _, u := range pr.rowOrder(n) {
		if matchX[u] == -1 {
			rows = append(rows, u)
		}
	}
	if len(rows) == 0 {
		return res, false
	}

	type tree struct {
		lx, ly   []float64
		way      []int
		freeCols []int
	}
	trees := make([]tree, len(rows))
	tele.trees.Add(int64(len(rows)))
	forEachIndex(opts.Workers, len(rows), func(i int) {
		tlx, tly, way, freeCols := alternatingTree(rows[i], theta, lx, ly, matchX, matchY, tele.relabels)
		trees[i] = tree{tlx, tly, way, freeCols}
	})

	type task struct {
		row, endCol int // row indexes rows/trees
	}
	var tasks []task
	for ri := range rows {
		st.Expanded++
		for _, endCol := range trees[ri].freeCols {
			if opts.MaxGenerated > 0 && st.Generated >= opts.MaxGenerated {
				stop.now(st) // records StopMaxGenerated
				return res, false
			}
			st.Generated++
			tele.augPaths.Inc()
			tasks = append(tasks, task{ri, endCol})
		}
	}
	if len(tasks) == 0 {
		return res, false
	}

	scores := make([]float64, len(tasks))
	var halted atomic.Bool
	forEachIndex(opts.Workers, len(tasks), func(i int) {
		if halted.Load() {
			return
		}
		if stop.signaled() {
			halted.Store(true)
			return
		}
		t := tasks[i]
		mx := append([]int(nil), matchX...)
		my := append([]int(nil), matchY...)
		augment(mx, my, trees[t.row].way, t.endCol)
		scores[i] = pr.scorePadded(mx, n1, n2, opts.Bound)
	})
	if halted.Load() {
		stop.now(st) // records the reason the scorers observed
		return res, false
	}

	best := 0
	for i := 1; i < len(tasks); i++ {
		if scores[i] > scores[best] {
			best = i
		}
	}
	t := tasks[best]
	res.matchX = append([]int(nil), matchX...)
	res.matchY = append([]int(nil), matchY...)
	augment(res.matchX, res.matchY, trees[t.row].way, t.endCol)
	res.lx, res.ly = trees[t.row].lx, trees[t.row].ly
	return res, true
}

// repair hill-climbs the complete mapping under the pattern normal distance
// using target swaps and moves to unused targets, until a local optimum or
// until the stopper fires. The budget is polled inside each candidate loop
// (not once per sweep): a full sweep is quadratic-to-cubic in the alphabet,
// far too coarse a granularity for a wall-clock deadline. m stays complete
// at every instant, so an early return is a valid anytime result.
//
// A move is committed when its gain exceeds eps. Each gain is first bounded
// without any log scan (see repairState.gain), and a move whose bound
// cannot exceed eps is rejected on the bound alone: the decisions, and so
// the result, are those of evaluating every gain in full.
func (pr *Problem) repair(m Mapping, st *Stats, stop *stopper, tele *searchTelemetry) {
	n1 := len(m)
	const eps = 1e-12
	r := pr.newRepairState(m)
	for improved := true; improved; {
		improved = false
		// Pairwise target swaps.
		for i := 0; i < n1; i++ {
			for j := i + 1; j < n1; j++ {
				if _, halt := stop.every(st); halt {
					return
				}
				st.Generated++
				if r.swapGain(m, event.ID(i), event.ID(j), eps) > eps {
					m[i], m[j] = m[j], m[i]
					r.commit()
					improved = true
					tele.repairMoves.Inc()
				}
			}
		}
		// Three-cycle rotations escape 2-swap-stable local optima. They are
		// cubic in the alphabet, so only applied at modest sizes.
		if n1 <= 48 {
			for i := 0; i < n1; i++ {
				for j := 0; j < n1; j++ {
					if j == i {
						continue
					}
					for k := j + 1; k < n1; k++ {
						if k == i {
							continue
						}
						if _, halt := stop.every(st); halt {
							return
						}
						st.Generated++
						if r.rotateGain(m, event.ID(i), event.ID(j), event.ID(k), eps) > eps {
							m[i], m[j], m[k] = m[j], m[k], m[i]
							r.commit()
							improved = true
							tele.repairMoves.Inc()
						}
					}
				}
			}
		}
		// Moves onto unused real targets (when |V2| > |V1|).
		if pr.n2real > n1 {
			used := make([]bool, pr.n2real)
			for _, v := range m {
				if v != event.None {
					used[v] = true
				}
			}
			for i := 0; i < n1; i++ {
				for b := 0; b < pr.n2real; b++ {
					if used[b] {
						continue
					}
					if _, halt := stop.every(st); halt {
						return
					}
					st.Generated++
					old := m[i]
					if r.moveGain(m, event.ID(i), event.ID(b), eps) > eps {
						m[i] = event.ID(b)
						r.commit()
						if old != event.None {
							used[old] = false
						}
						used[b] = true
						improved = true
						tele.repairMoves.Inc()
					}
				}
			}
		}
	}
}

// repairState is one repair run's bookkeeping: every pattern's contribution
// under the current mapping, and the move under evaluation. It lives for a
// single repair call and never on the Problem, which concurrent searches
// may share.
type repairState struct {
	pr  *Problem
	cur []float64 // cur[p]: d(p) under the current mapping; 0 while p is not fully mapped

	affected []int     // the patterns the evaluated move touches, in Ip order
	after    []float64 // their contributions after the move, once evaluated in full
	mark     []int     // mark[p] == stamp: p is already in affected
	stamp    int
}

func (pr *Problem) newRepairState(m Mapping) *repairState {
	r := &repairState{pr: pr, cur: make([]float64, len(pr.patterns)), mark: make([]int, len(pr.patterns))}
	for p := range pr.patterns {
		if pi := &pr.patterns[p]; fullyMapped(pi, m) {
			r.cur[p] = pr.contribution(pi, m)
		}
	}
	return r
}

// collect sets affected to the union of the patterns containing each of
// the given events, in the order Ip lists them.
func (r *repairState) collect(events ...event.ID) {
	r.stamp++
	r.affected = r.affected[:0]
	for _, v := range events {
		for _, p := range r.pr.pix.Containing(v) {
			if r.mark[p] != r.stamp {
				r.mark[p] = r.stamp
				r.affected = append(r.affected, p)
			}
		}
	}
}

// swapGain is the gain of m[i] and m[j] exchanging targets (see gain).
func (r *repairState) swapGain(m Mapping, i, j event.ID, eps float64) float64 {
	r.collect(i, j)
	m[i], m[j] = m[j], m[i]
	g := r.gain(m, eps)
	m[i], m[j] = m[j], m[i]
	return g
}

// rotateGain is the gain of the 3-cycle m[i]←m[j]←m[k]←m[i] (see gain).
func (r *repairState) rotateGain(m Mapping, i, j, k event.ID, eps float64) float64 {
	r.collect(i, j, k)
	mi, mj, mk := m[i], m[j], m[k]
	m[i], m[j], m[k] = mj, mk, mi
	g := r.gain(m, eps)
	m[i], m[j], m[k] = mi, mj, mk
	return g
}

// moveGain is the gain of re-targeting m[i] to the unused event b (see
// gain).
func (r *repairState) moveGain(m Mapping, i, b event.ID, eps float64) float64 {
	r.collect(i)
	old := m[i]
	m[i] = b
	g := r.gain(m, eps)
	m[i] = old
	return g
}

// gain returns the change in pattern normal distance over the affected
// patterns, from their current contributions to those under m, the mapping
// with the move applied. It first sums an upper bound of the moved terms in
// the same order, scanning no log: vertex and edge terms exactly, a complex
// pattern as Sim(f1, 0) when Proposition 3 rules its image out and as 1
// otherwise. Sums and Sim are monotone in floating point, so the exact gain
// is at most bound − before; when that is ≤ eps it is returned instead.
// Otherwise the gain is exact, and commit can apply the move's terms.
func (r *repairState) gain(m Mapping, eps float64) float64 {
	pr := r.pr
	before, bound := 0.0, 0.0
	for _, p := range r.affected {
		before += r.cur[p]
		bound += pr.contributionBound(&pr.patterns[p], m)
	}
	if bound-before <= eps {
		return bound - before
	}
	after := 0.0
	r.after = r.after[:0]
	for _, p := range r.affected {
		d := 0.0
		if pi := &pr.patterns[p]; fullyMapped(pi, m) {
			d = pr.contribution(pi, m)
		}
		r.after = append(r.after, d)
		after += d
	}
	return after - before
}

// commit records the last evaluated move as made: it must follow a gain
// that came back above eps, so its terms are exact.
func (r *repairState) commit() {
	for k, p := range r.affected {
		r.cur[p] = r.after[k]
	}
}

// rowOrder returns row indices 0..n-1 with the real V1 events first in
// §3.1 pattern-degree order, then any dummy rows.
func (pr *Problem) rowOrder(n int) []int {
	out := make([]int, 0, n)
	for _, v := range pr.order {
		out = append(out, int(v))
	}
	for i := len(pr.order); i < n; i++ {
		out = append(out, i)
	}
	return out
}

// thetaMatrix computes the estimated score θ(v1, v2) of Formula (2), padded
// to n×n with zero rows/columns for dummy events.
//
// Formula (2) estimates f2(M(p)) of every pattern containing v1 by the
// vertex frequency f2(v2). That estimate is exact for vertex patterns and
// crude for larger ones (the paper notes it is exact only "if f2(v2)
// perfectly estimates f2(p2)"). Comparing a k-event pattern frequency
// against a single-vertex frequency systematically pulls events toward
// targets whose vertex frequency happens to match a pattern frequency, so
// for multi-event patterns we use the sharper admissible estimate
// min(f2(v2), f1(p)) — "assume the mapped pattern is as frequent as it can
// be, capped by the vertex we know". This keeps the two exactness
// properties of §5.1.1 (vertex patterns remain exact) while making θ a
// sound optimistic estimate instead of a biased one.
func (pr *Problem) thetaMatrix(n int) [][]float64 {
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	theta := make([][]float64, n)
	for i := range theta {
		theta[i] = make([]float64, n)
	}
	for v1 := 0; v1 < n1; v1++ {
		for _, piIdx := range pr.pix.Containing(event.ID(v1)) {
			pi := &pr.patterns[piIdx]
			inv := 1 / float64(len(pi.events))
			for v2 := 0; v2 < n2; v2++ {
				f2 := pr.G2.VertexFreq(event.ID(v2))
				if len(pi.events) > 1 && f2 > pi.f1 {
					f2 = pi.f1
				}
				theta[v1][v2] += inv * Sim(pi.f1, f2)
			}
		}
	}
	return theta
}

// alternatingTree is Algorithm 4: grow the maximal alternating tree rooted at
// row u, updating a copy of the labeling via Formulas (3)/(4) until every
// column is in the tree. It returns the updated labels, the way array (the
// tree row through which each column was reached, for path extraction) and
// the free columns — each of which terminates one augmenting path. relabels,
// when non-nil, counts the Formula (3)/(4) labeling updates applied.
func alternatingTree(u int, theta [][]float64, lx, ly []float64, matchX, matchY []int, relabels *telemetry.Counter) (tlx, tly []float64, way []int, freeCols []int) {
	n := len(lx)
	tlx = append([]float64(nil), lx...)
	tly = append([]float64(nil), ly...)
	way = make([]int, n)
	slack := make([]float64, n)
	inS := make([]bool, n)
	inT := make([]bool, n)
	inS[u] = true
	for j := 0; j < n; j++ {
		slack[j] = tlx[u] + tly[j] - theta[u][j]
		way[j] = u
	}
	const eps = 1e-12
	for added := 0; added < n; added++ {
		delta := math.Inf(1)
		jNext := -1
		for j := 0; j < n; j++ {
			if !inT[j] && slack[j] < delta {
				delta = slack[j]
				jNext = j
			}
		}
		if jNext == -1 {
			break
		}
		if delta > eps {
			relabels.Inc()
			for i := 0; i < n; i++ {
				if inS[i] {
					tlx[i] -= delta
				}
			}
			for j := 0; j < n; j++ {
				if inT[j] {
					tly[j] += delta
				} else {
					slack[j] -= delta
				}
			}
		}
		inT[jNext] = true
		if i := matchY[jNext]; i != -1 {
			if !inS[i] {
				inS[i] = true
				for j := 0; j < n; j++ {
					if !inT[j] {
						if s := tlx[i] + tly[j] - theta[i][j]; s < slack[j] {
							slack[j] = s
							way[j] = i
						}
					}
				}
			}
		} else {
			freeCols = append(freeCols, jNext)
		}
	}
	return tlx, tly, way, freeCols
}

// augment flips the matching along the alternating path ending at the free
// column endCol, using the way chain back to the tree root.
func augment(matchX, matchY []int, way []int, endCol int) {
	j := endCol
	for j != -1 {
		i := way[j]
		next := matchX[i]
		matchX[i] = j
		matchY[j] = i
		j = next
	}
}

// scorePadded evaluates g+h for a padded matching state: dummy rows/columns
// are ignored; columns held by dummy rows stay available to the bound's U2.
func (pr *Problem) scorePadded(matchX []int, n1, n2 int, bound BoundKind) float64 {
	m := matched(matchX, n1, n2)
	return pr.Distance(m) + pr.hBound(bound, m, usedTargets(m, n2))
}
