package match

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

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
	tele := pr.newSearchTelemetry(opts)
	span := tele.advancedTime.Start()
	m, st, err := pr.heuristicAdvanced(ctx, opts, tele)
	span.Stop()
	m, st = pr.applySeedFloor(opts, m, st, err)
	tele.noteRescore(pr, m)
	tele.finish(&st)
	return m, st, err
}

// heuristicAdvanced is the Algorithm 3 loop behind HeuristicAdvancedContext.
func (pr *Problem) heuristicAdvanced(ctx context.Context, opts Options, tele *searchTelemetry) (m Mapping, st Stats, err error) {
	start := time.Now()
	stop := newStopper(ctx, opts, start)
	defer func() { m, st = pr.applyCheckpointFloor(stop, m, st, err) }()
	pr.applyWorkers(opts)
	n1, n2 := pr.L1.NumEvents(), pr.n2pad
	n := n1
	if n2 > n {
		n = n2 // pad with dummy events so |V1| == |V2| (§5.1.1)
	}
	if n == 0 {
		return Mapping{}, st, nil
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
		anchors := pr.seedFromPatterns(&st, stop)
		tele.seedAnchors.Add(int64(len(anchors)))
		for _, pair := range anchors {
			matchX[pair[0]] = pair[1]
			matchY[pair[1]] = pair[0]
		}
	}

	// Checkpoint snapshots during augmentation read the committed matching
	// (matchX is only reassigned between rounds on this goroutine), complete
	// it greedily and score it — the same shape the anytime exit produces.
	stop.onSnapshot(func() (Mapping, float64) {
		snap := NewMapping(n1)
		for i := 0; i < n1; i++ {
			if j := matchX[i]; j >= 0 && j < n2 {
				snap[i] = event.ID(j)
			}
		}
		used := make([]bool, n2)
		for _, v := range snap {
			if v != event.None {
				used[v] = true
			}
		}
		pr.completeGreedy(snap, used, opts)
		assertInjective("advanced checkpoint snapshot", snap)
		score := pr.Distance(snap)
		return pr.stripArtificial(snap), score
	})

	for round := 0; round < n; round++ {
		if _, halt := stop.now(&st); halt {
			break
		}
		tele.rounds.Inc()
		next, ok := pr.augmentRound(theta, lx, ly, matchX, matchY, n1, n2, &st, opts, stop, tele)
		if !ok {
			break // matching complete, or a budget fired mid-round
		}
		matchX, matchY, lx, ly = next.matchX, next.matchY, next.lx, next.ly
	}

	m = NewMapping(n1)
	for i := 0; i < n1; i++ {
		if j := matchX[i]; j >= 0 && j < n2 {
			m[i] = event.ID(j)
		}
	}
	if _, halt := stop.halted(); halt {
		// Anytime path: the augmentation (or seeding) was cut short. Keep
		// whatever the matching holds and complete the rest greedily over
		// the padded target set, skipping the repair phase.
		used := make([]bool, n2)
		for _, v := range m {
			if v != event.None {
				used[v] = true
			}
		}
		pr.completeGreedy(m, used, opts)
	} else {
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
			st.Elapsed = time.Since(start)
			return nil, st, errors.New("match: heuristic failed to produce a perfect matching")
		}
		// Repair phase — the paper's second intuition (§5.1): "modify the
		// previously determined matching M referring to the patterns". Once the
		// augmentation loop has produced a perfect matching, pattern-guided
		// pairwise swaps (and moves onto unused targets) fix early erroneous
		// commitments that augmenting paths alone did not revisit. Each swap is
		// evaluated incrementally through the Ip index.
		if !opts.NoRepair {
			// Repair mutates the complete mapping in place; between poll
			// sites it is always a valid complete mapping, so checkpoint
			// snapshots just clone and score it.
			stop.onSnapshot(func() (Mapping, float64) {
				snap := m.Clone()
				return pr.stripArtificial(snap), pr.Distance(snap)
			})
			pr.repair(m, &st, opts, stop, tele)
		}
	}
	pr.stripArtificial(m)
	assertInjective("advanced result", m)
	if reason, halt := stop.halted(); halt {
		st.Truncated = true
		st.StopReason = reason
	}
	st.Elapsed = time.Since(start)
	st.Score = pr.Distance(m)
	return m, st, nil
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
func (pr *Problem) repair(m Mapping, st *Stats, opts Options, stop *stopper, tele *searchTelemetry) {
	n1 := len(m)
	const eps = 1e-12
	for improved := true; improved; {
		improved = false
		// Pairwise target swaps.
		for i := 0; i < n1; i++ {
			for j := i + 1; j < n1; j++ {
				if _, halt := stop.every(st); halt {
					return
				}
				st.Generated++
				if pr.swapGain(m, event.ID(i), event.ID(j)) > eps {
					m[i], m[j] = m[j], m[i]
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
						if pr.rotateGain(m, event.ID(i), event.ID(j), event.ID(k)) > eps {
							m[i], m[j], m[k] = m[j], m[k], m[i]
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
					if pr.moveGain(m, event.ID(i), event.ID(b)) > eps {
						m[i] = event.ID(b)
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

// swapGain returns the change in pattern normal distance if m[i] and m[j]
// exchange targets, touching only the patterns containing i or j.
func (pr *Problem) swapGain(m Mapping, i, j event.ID) float64 {
	affected := pr.affectedPatterns(i, j)
	before := pr.patternsScore(affected, m)
	m[i], m[j] = m[j], m[i]
	after := pr.patternsScore(affected, m)
	m[i], m[j] = m[j], m[i]
	return after - before
}

// rotateGain returns the change in pattern normal distance for the 3-cycle
// m[i]←m[j]←m[k]←m[i], touching only the patterns containing i, j or k.
func (pr *Problem) rotateGain(m Mapping, i, j, k event.ID) float64 {
	affected := pr.affectedPatterns(i, j)
	for _, pi := range pr.pix.Containing(k) {
		dup := false
		for _, q := range affected {
			if q == pi {
				dup = true
				break
			}
		}
		if !dup {
			affected = append(affected, pi)
		}
	}
	before := pr.patternsScore(affected, m)
	mi, mj, mk := m[i], m[j], m[k]
	m[i], m[j], m[k] = mj, mk, mi
	after := pr.patternsScore(affected, m)
	m[i], m[j], m[k] = mi, mj, mk
	return after - before
}

// moveGain returns the change in pattern normal distance if m[i] is
// re-targeted to the unused event b.
func (pr *Problem) moveGain(m Mapping, i, b event.ID) float64 {
	affected := pr.pix.Containing(i)
	before := pr.patternsScore(affected, m)
	old := m[i]
	m[i] = b
	after := pr.patternsScore(affected, m)
	m[i] = old
	return after - before
}

// affectedPatterns returns the union of pattern indices containing i or j.
func (pr *Problem) affectedPatterns(i, j event.ID) []int {
	a, b := pr.pix.Containing(i), pr.pix.Containing(j)
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	for _, pi := range b {
		dup := false
		for _, q := range a {
			if q == pi {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, pi)
		}
	}
	return out
}

// patternsScore sums d(p) over the given (fully mapped) pattern indices.
func (pr *Problem) patternsScore(idxs []int, m Mapping) float64 {
	total := 0.0
	for _, pi := range idxs {
		p := &pr.patterns[pi]
		if fullyMapped(p, m) {
			total += pr.contribution(p, m)
		}
	}
	return total
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
	m := NewMapping(n1)
	used := make([]bool, n2)
	for i := 0; i < n1; i++ {
		if j := matchX[i]; j >= 0 && j < n2 {
			m[i] = event.ID(j)
			used[j] = true
		}
	}
	return pr.Distance(m) + pr.hBound(bound, m, used)
}
