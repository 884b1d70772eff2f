package match

import (
	"sort"

	"eventmatch/internal/event"
	"eventmatch/internal/isomorph"
)

// seedEmbeddingLimit caps how many embeddings of one pattern graph are
// collected per enumeration; structurally common patterns (many embeddings)
// are poor anchors anyway (§2.2 guideline), so the cap costs little accuracy.
const seedEmbeddingLimit = 8000

// seedEvalTop bounds how many of the cheapest-scored embeddings get the full
// (log-scanning) pattern-frequency evaluation.
const seedEvalTop = 48

// minSeedScore is the d(p) a pattern embedding must reach before its
// assignments are committed as anchors.
const minSeedScore = 0.5

// seedFromPatterns anchors the mapping on the complex patterns before any
// search: each pattern's graph form is embedded into G2 (subgraph search over
// still-unused targets), and embeddings are scored by the local evidence they
// pin down — the pattern's own frequency similarity, the vertex/edge terms
// the assignment determines (including edges toward previously committed
// anchors), and the degree-mass similarity of each assigned pair.
//
// Commits happen greedily by confidence: each round re-evaluates every
// remaining pattern and commits the one whose best embedding leads its
// runner-up by the largest margin. In logs built from repeated, structurally
// identical fragments (the paper's Fig. 11 workload) every fragment looks
// like every other in isolation; confidence-ordered commits let each anchored
// fragment disambiguate its neighbours through the dependency edges that
// connect them, so the chain is resolved outward from the least ambiguous
// fragment instead of in arbitrary declaration order.
//
// pick chooses among each pattern's ranked embeddings (see
// seedContext.pickEmbedding). The stopper is polled inside the embedding
// enumeration; on a stop the anchors committed so far are returned, keeping
// the phase anytime.
func (pr *Problem) seedFromPatterns(st *Stats, stop *stopper, pick embeddingPicker) [][2]int {
	var complexIdx []int
	for i := range pr.patterns {
		if pr.patterns[i].kind == KindComplex {
			complexIdx = append(complexIdx, i)
		}
	}
	if len(complexIdx) == 0 {
		return nil
	}
	// Least order-symmetric first as the tie-break order: a pure SEQ (ω = 1)
	// pins its events to specific targets, while an AND accepts any member
	// permutation and cannot identify members on its own.
	sort.SliceStable(complexIdx, func(a, b int) bool {
		pa, pb := &pr.patterns[complexIdx[a]], &pr.patterns[complexIdx[b]]
		if pa.omega != pb.omega {
			return pa.omega < pb.omega
		}
		if len(pa.events) != len(pb.events) {
			return len(pa.events) > len(pb.events)
		}
		return pa.f1 > pb.f1
	})

	ctx := pr.newSeedContext()
	assigned := NewMapping(pr.L1.NumEvents())
	usedTarget := make([]bool, pr.n2pad)
	remaining := append([]int(nil), complexIdx...)

	for len(remaining) > 0 {
		if _, halt := stop.now(st); halt {
			break
		}
		// Restrict each round to the least order-symmetric patterns still
		// pending: a pure SEQ's winning embedding identifies its events,
		// whereas an AND's margin reflects only secondary evidence (any
		// member permutation scores the same on the pattern itself), so an
		// AND must never pre-empt a SEQ that shares events with it.
		minOmega := pr.patterns[remaining[0]].omega
		for _, ci := range remaining[1:] {
			if o := pr.patterns[ci].omega; o < minOmega {
				minOmega = o
			}
		}
		bestIdx := -1
		bestMargin := -1.0
		var bestAssign []int
		var bestPattern *pinfo
		next := remaining[:0]
		for _, ci := range remaining {
			pi := &pr.patterns[ci]
			// Only anchor patterns whose events are all still free, so
			// committed anchors never conflict.
			free := true
			for _, v := range pi.events {
				if assigned[v] != event.None {
					free = false
					break
				}
			}
			if !free {
				continue // events taken elsewhere; pattern retired
			}
			next = append(next, ci)
			if pi.omega != minOmega {
				continue // deferred to a later round
			}
			top, second, topAssign := ctx.bestEmbedding(pi, assigned, usedTarget, st, stop, pick)
			if topAssign == nil {
				next = next[:len(next)-1] // no viable embedding; pattern retired
				continue
			}
			margin := top - second
			if margin > bestMargin {
				bestMargin = margin
				bestIdx = ci
				bestAssign = append(bestAssign[:0], topAssign...)
				bestPattern = pi
			}
		}
		remaining = next
		if bestIdx < 0 {
			// No commit possible in the lowest-ω class: retire it so the
			// next class gets its turn.
			trimmed := remaining[:0]
			for _, ci := range remaining {
				if pr.patterns[ci].omega != minOmega {
					trimmed = append(trimmed, ci)
				}
			}
			if len(trimmed) == len(remaining) {
				break
			}
			remaining = trimmed
			continue
		}
		for li, v := range bestPattern.events {
			assigned[v] = event.ID(bestAssign[li])
			usedTarget[bestAssign[li]] = true
		}
		// Retire the committed pattern.
		for i, ci := range remaining {
			if ci == bestIdx {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}

	assertInjective("pattern seed anchors", assigned)
	var out [][2]int
	for v1, v2 := range assigned {
		if v2 != event.None {
			out = append(out, [2]int{v1, int(v2)})
		}
	}
	return out
}

// seedContext caches the structures shared by all embedding evaluations: the
// target graph in isomorph form and the degree-mass profiles of both graphs.
type seedContext struct {
	pr     *Problem
	target *isomorph.Graph
	in1    []float64 // summed in-edge frequency per G1 vertex
	out1   []float64
	in2    []float64 // same for G2 (padded)
	out2   []float64
}

func (pr *Problem) newSeedContext() *seedContext {
	ctx := &seedContext{
		pr:     pr,
		target: pr.g2Iso(),
		in1:    make([]float64, pr.G1.NumVertices()),
		out1:   make([]float64, pr.G1.NumVertices()),
		in2:    make([]float64, pr.G2.NumVertices()),
		out2:   make([]float64, pr.G2.NumVertices()),
	}
	for _, e := range pr.G1.Edges() {
		f := pr.G1.EdgeFreq(e.From, e.To)
		ctx.out1[e.From] += f
		ctx.in1[e.To] += f
	}
	for _, e := range pr.G2.Edges() {
		f := pr.G2.EdgeFreq(e.From, e.To)
		ctx.out2[e.From] += f
		ctx.in2[e.To] += f
	}
	return ctx
}

// massSim scores how well target x matches source v by incident edge mass —
// positional evidence that separates, say, the first fragment of a process
// chain (no inbound mass) from an identical fragment mid-chain.
func (ctx *seedContext) massSim(v event.ID, x event.ID) float64 {
	return Sim(ctx.in1[v], ctx.in2[x]) + Sim(ctx.out1[v], ctx.out2[x])
}

// embedding is one embedding of a pattern's graph form into G2: the target
// of each pattern event, in pattern-event order, and its cheap score.
type embedding struct {
	m     []int
	cheap float64
}

// embeddingPicker chooses among a pattern's embeddings, ranked by cheap
// score, and returns the best and second-best totals and the best one's
// assignment (see seedContext.pickEmbedding).
type embeddingPicker func(ctx *seedContext, pi *pinfo, embs []embedding, scratch Mapping) (best, second float64, bestAssign []int)

// bestEmbedding enumerates embeddings of pi's graph form over unused targets
// and returns the best and second-best total scores plus the winning
// assignment (pattern-event order). Scoring is two-phase: a cheap local
// score (vertex/edge/mass evidence among the assignment and toward existing
// anchors) ranks all embeddings; pick then adds the pattern's own frequency
// contribution for the top candidates, which also gates acceptance. pi's
// events must all be unassigned.
func (ctx *seedContext) bestEmbedding(pi *pinfo, assigned Mapping, usedTarget []bool, st *Stats, stop *stopper, pick embeddingPicker) (best, second float64, bestAssign []int) {
	pr := ctx.pr
	pg, local := patternIsoGraph(pi)
	affected := pr.affectedOf(local)

	var embs []embedding
	count := 0
	scratch := assigned.Clone()
	isomorph.Enumerate(pg, ctx.target, false, func(m []int) bool {
		if _, halt := stop.every(st); halt {
			return false // abort enumeration; the anchors so far still hold
		}
		count++
		for _, t := range m {
			if usedTarget[t] {
				return count < seedEmbeddingLimit
			}
		}
		st.Generated++
		cheap := 0.0
		for li, v := range local {
			scratch[v] = event.ID(m[li])
			cheap += ctx.massSim(v, event.ID(m[li]))
		}
		cheap += pr.cheapSeedScore(affected, scratch, pi)
		for _, v := range local {
			scratch[v] = assigned[v]
		}
		embs = append(embs, embedding{append([]int(nil), m...), cheap})
		return count < seedEmbeddingLimit
	})
	if len(embs) == 0 {
		return 0, 0, nil
	}
	sort.Slice(embs, func(a, b int) bool { return embs[a].cheap > embs[b].cheap })
	if len(embs) > seedEvalTop {
		embs = embs[:seedEvalTop]
	}
	best, second, bestAssign = pick(ctx, pi, embs, scratch)
	if bestAssign == nil {
		return 0, 0, nil
	}
	if second < 0 {
		second = 0
	}
	return best, second, bestAssign
}

// pickEmbedding returns the best and second-best totals, own contribution
// plus cheap score, over the embeddings, in descending cheap order, whose
// own contribution reaches minSeedScore, and the best one's assignment; -1
// stands for a missing total. scratch is the committed anchors, with pi's
// events unassigned, and is left so. The own contribution is at most 1, so
// the walk stops at the first embedding with 1 + cheap ≤ second: neither it
// nor any later one can change best or second, and their patterns'
// frequencies are never evaluated.
func (ctx *seedContext) pickEmbedding(pi *pinfo, embs []embedding, scratch Mapping) (best, second float64, bestAssign []int) {
	best, second = -1, -1
	for _, e := range embs {
		if 1+e.cheap <= second {
			break
		}
		for li, v := range pi.events {
			scratch[v] = event.ID(e.m[li])
		}
		own := ctx.pr.contribution(pi, scratch)
		total := own + e.cheap
		for _, v := range pi.events {
			scratch[v] = event.None
		}
		if own < minSeedScore {
			continue
		}
		switch {
		case total > best:
			second = best
			best = total
			bestAssign = e.m
		case total > second:
			second = total
		}
	}
	return best, second, bestAssign
}

// affectedOf returns the indices of all non-complex patterns touching any of
// the given events — the vertex and edge evidence a candidate assignment of
// those events pins down.
func (pr *Problem) affectedOf(events []event.ID) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range events {
		for _, pi := range pr.pix.Containing(v) {
			if !seen[pi] && pr.patterns[pi].kind != KindComplex {
				seen[pi] = true
				out = append(out, pi)
			}
		}
	}
	return out
}

// cheapSeedScore sums the vertex/edge evidence the assignment determines —
// terms over patterns fully mapped under m — without any log scan.
func (pr *Problem) cheapSeedScore(affected []int, m Mapping, exclude *pinfo) float64 {
	total := 0.0
	for _, pi := range affected {
		p := &pr.patterns[pi]
		if p == exclude {
			continue
		}
		if fullyMapped(p, m) {
			total += pr.contribution(p, m)
		}
	}
	return total
}

// patternIsoGraph converts a pattern's graph form to an isomorph.Graph over
// local vertex ids; local[i] is the original event of local vertex i.
func patternIsoGraph(pi *pinfo) (*isomorph.Graph, []event.ID) {
	local := make([]event.ID, len(pi.events))
	copy(local, pi.events)
	index := make(map[event.ID]int, len(local))
	for i, v := range local {
		index[v] = i
	}
	g := isomorph.NewGraph(len(local))
	for _, e := range pi.edges {
		g.AddEdge(index[e.From], index[e.To])
	}
	return g, local
}

// g2Iso converts G2 to an isomorph.Graph.
func (pr *Problem) g2Iso() *isomorph.Graph {
	g := isomorph.NewGraph(pr.G2.NumVertices())
	for _, e := range pr.G2.Edges() {
		g.AddEdge(int(e.From), int(e.To))
	}
	return g
}
