package match

import "eventmatch/internal/event"

// referencePhases are Heuristic-Advanced's anchoring choice and repair as
// they were before either consulted a bound: every embedding among the top
// candidates and every repair move has its complex-pattern frequencies
// evaluated in full. They are the oracle boundedPhases must agree with
// decision for decision.
var referencePhases = advancedPhases{pickEmbedding: refPickEmbedding, repair: refRepair}

// refPickEmbedding evaluates the own contribution of every ranked
// embedding.
func refPickEmbedding(ctx *seedContext, pi *pinfo, embs []embedding, scratch Mapping) (best, second float64, bestAssign []int) {
	best, second = -1, -1
	for _, e := range embs {
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

// refRepair is repair with every gain evaluated in full, before and after
// the move, through Distance's per-pattern terms.
func refRepair(pr *Problem, m Mapping, st *Stats, stop *stopper, tele *searchTelemetry) {
	n1 := len(m)
	const eps = 1e-12
	for improved := true; improved; {
		improved = false
		for i := 0; i < n1; i++ {
			for j := i + 1; j < n1; j++ {
				if _, halt := stop.every(st); halt {
					return
				}
				st.Generated++
				if pr.refSwapGain(m, event.ID(i), event.ID(j)) > eps {
					m[i], m[j] = m[j], m[i]
					improved = true
					tele.repairMoves.Inc()
				}
			}
		}
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
						if pr.refRotateGain(m, event.ID(i), event.ID(j), event.ID(k)) > eps {
							m[i], m[j], m[k] = m[j], m[k], m[i]
							improved = true
							tele.repairMoves.Inc()
						}
					}
				}
			}
		}
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
					if pr.refMoveGain(m, event.ID(i), event.ID(b)) > eps {
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

func (pr *Problem) refSwapGain(m Mapping, i, j event.ID) float64 {
	affected := pr.refAffectedPatterns(i, j)
	before := pr.refPatternsScore(affected, m)
	m[i], m[j] = m[j], m[i]
	after := pr.refPatternsScore(affected, m)
	m[i], m[j] = m[j], m[i]
	return after - before
}

func (pr *Problem) refRotateGain(m Mapping, i, j, k event.ID) float64 {
	affected := pr.refAffectedPatterns(i, j)
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
	before := pr.refPatternsScore(affected, m)
	mi, mj, mk := m[i], m[j], m[k]
	m[i], m[j], m[k] = mj, mk, mi
	after := pr.refPatternsScore(affected, m)
	m[i], m[j], m[k] = mi, mj, mk
	return after - before
}

func (pr *Problem) refMoveGain(m Mapping, i, b event.ID) float64 {
	affected := pr.pix.Containing(i)
	before := pr.refPatternsScore(affected, m)
	old := m[i]
	m[i] = b
	after := pr.refPatternsScore(affected, m)
	m[i] = old
	return after - before
}

// refAffectedPatterns returns the union of pattern indices containing i or
// j.
func (pr *Problem) refAffectedPatterns(i, j event.ID) []int {
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

// refPatternsScore sums d(p) over the given pattern indices that m maps
// fully.
func (pr *Problem) refPatternsScore(idxs []int, m Mapping) float64 {
	total := 0.0
	for _, pi := range idxs {
		p := &pr.patterns[pi]
		if fullyMapped(p, m) {
			total += pr.contribution(p, m)
		}
	}
	return total
}
