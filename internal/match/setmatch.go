package match

import (
	"context"
	"errors"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// SetMapping is a 1-to-n event mapping: each V1 event maps to a set of V2
// events (disjoint across V1 events; possibly empty). It generalizes
// Mapping for the paper's §8 future-work setting where one coarse activity
// in L1 corresponds to several fine-grained activities in L2 (e.g. Payment
// vs PayCash/PayCard).
type SetMapping [][]event.ID

// FromMapping lifts an injective mapping to singleton sets.
func FromMapping(m Mapping) SetMapping {
	out := make(SetMapping, len(m))
	for v1, v2 := range m {
		if v2 != event.None {
			out[v1] = []event.ID{v2}
		}
	}
	return out
}

// translateL2 rewrites L2 into L1's vocabulary under the set mapping: every
// V2 event in sm[v1] becomes v1's name; unmapped V2 events keep their own
// names (prefixed when they would collide with an L1 name). The returned
// log's alphabet starts with L1's names in id order, so the identity mapping
// relates L1 to it.
func (pr *Problem) translateL2(sm SetMapping) *event.Log {
	l1, l2 := pr.L1, pr.L2
	rename := make([]string, l2.NumEvents())
	for v1, set := range sm {
		for _, v2 := range set {
			rename[v2] = l1.Alphabet.Name(event.ID(v1))
		}
	}
	for v2 := range rename {
		if rename[v2] != "" {
			continue
		}
		name := l2.Alphabet.Name(event.ID(v2))
		if l1.Alphabet.Lookup(name) != event.None {
			name = "\x00l2:" + name // avoid accidental aliasing on name collision
		}
		rename[v2] = name
	}
	out := &event.Log{Alphabet: event.NewAlphabet(l1.Alphabet.Names()...)}
	for _, t := range l2.Traces {
		nt := make(event.Trace, len(t))
		for i, e := range t {
			nt[i] = out.Alphabet.Intern(rename[e])
		}
		out.Traces = append(out.Traces, nt)
	}
	return out
}

// SetDistance evaluates the pattern normal distance of a 1-to-n mapping: L2
// is translated into L1's vocabulary (an event set behaves as one merged
// event) and every pattern is scored under the identity correspondence.
func (pr *Problem) SetDistance(sm SetMapping) (float64, error) {
	translated := pr.translateL2(sm)
	sub, err := BuildProblem(pr.L1, translated, pr.userPatterns(), pr.Mode)
	if err != nil {
		return 0, err
	}
	identity := NewMapping(pr.L1.NumEvents())
	for v1 := range identity {
		// Only events that actually have images participate.
		if v1 < len(sm) && len(sm[v1]) > 0 {
			identity[v1] = event.ID(v1)
		}
	}
	return sub.Distance(identity), nil
}

// userPatterns re-extracts the complex user patterns this problem was built
// with (vertex and edge specials are reconstructed by BuildProblem).
func (pr *Problem) userPatterns() []*pattern.Pattern {
	var out []*pattern.Pattern
	for i := range pr.patterns {
		pi := &pr.patterns[i]
		if pi.kind == KindComplex {
			out = append(out, pi.p)
		}
	}
	return out
}

// ExtendOneToNContext grows an injective mapping into a 1-to-n mapping: every
// V2 event left unmapped is greedily joined to the V1 event whose
// merged-event interpretation raises the pattern normal distance the most,
// until no join improves it. The Stats count each evaluated join as a
// generated mapping. The extension is naturally anytime — the set mapping
// is valid after every committed join — so on cancellation or budget
// exhaustion (polled per evaluated join: each join evaluation rebuilds a
// problem and is far coarser than checkEvery) the joins committed so far
// are returned with Stats.Truncated set.
func (pr *Problem) ExtendOneToNContext(ctx context.Context, m Mapping, opts Options) (SetMapping, Stats, error) {
	start := time.Now()
	var st Stats
	stop := newStopper(ctx, opts, start)
	if len(m) != pr.L1.NumEvents() {
		return nil, st, errors.New("match: mapping length mismatch")
	}
	sm := FromMapping(m)
	for len(sm) < pr.L1.NumEvents() {
		sm = append(sm, nil)
	}
	used := make([]bool, pr.n2real)
	for _, set := range sm {
		for _, v2 := range set {
			if int(v2) < len(used) {
				used[int(v2)] = true
			}
		}
	}
	var unassigned []event.ID
	for v2 := 0; v2 < pr.n2real; v2++ {
		if !used[v2] {
			unassigned = append(unassigned, event.ID(v2))
		}
	}
	current, err := pr.SetDistance(sm)
	if err != nil {
		return nil, st, err
	}
	const eps = 1e-9
sweep:
	for len(unassigned) > 0 {
		bestGain := eps
		bestU := -1
		bestV1 := -1
		for ui, u := range unassigned {
			for v1 := 0; v1 < pr.L1.NumEvents(); v1++ {
				if len(sm[v1]) == 0 {
					continue // joining an unmapped source is meaningless
				}
				if _, halt := stop.now(&st); halt {
					break sweep
				}
				st.Generated++
				sm[v1] = append(sm[v1], u)
				score, err := pr.SetDistance(sm)
				sm[v1] = sm[v1][:len(sm[v1])-1]
				if err != nil {
					return nil, st, err
				}
				if gain := score - current; gain > bestGain {
					bestGain = gain
					bestU = ui
					bestV1 = v1
				}
			}
		}
		if bestU < 0 {
			break
		}
		sm[bestV1] = append(sm[bestV1], unassigned[bestU])
		unassigned = append(unassigned[:bestU], unassigned[bestU+1:]...)
		current += bestGain
	}
	if reason, halt := stop.halted(); halt {
		st.Truncated = true
		st.StopReason = reason
	}
	st.Elapsed = time.Since(start)
	st.Score = current
	return sm, st, nil
}
