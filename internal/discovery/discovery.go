// Package discovery mines candidate event patterns from a log, providing the
// "patterns discovered from data" pathway the paper points to ([8], [9],
// [10] in its related work). The miner finds frequent contiguous episodes
// (Apriori-style over n-grams of distinct events), folds permutation
// families into AND patterns, and ranks the result by the paper's §2.2
// discriminativeness guidelines: prefer large, order-constrained, frequent
// patterns and drop patterns subsumed by larger ones.
package discovery

import (
	"fmt"
	"sort"
	"strings"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// Options tune the miner. Zero values select sensible defaults.
type Options struct {
	// MinSupport is the minimum fraction of traces a pattern instance must
	// occur in (default 0.4).
	MinSupport float64
	// MaxLen bounds the episode length in events (default 4).
	MaxLen int
	// MaxPatterns caps the number of returned patterns (default 8).
	MaxPatterns int
}

func (o *Options) defaults() {
	if o.MinSupport == 0 {
		o.MinSupport = 0.4
	}
	if o.MaxLen == 0 {
		o.MaxLen = 4
	}
	if o.MaxPatterns == 0 {
		o.MaxPatterns = 8
	}
}

// Discover mines patterns from the log. The returned patterns are bound to
// the log's alphabet and sorted most-discriminative first.
func Discover(l *event.Log, opts Options) ([]*pattern.Pattern, error) {
	opts.defaults()
	if opts.MinSupport < 0 || opts.MinSupport > 1 {
		return nil, fmt.Errorf("discovery: MinSupport %v outside [0,1]", opts.MinSupport)
	}
	if l.NumTraces() == 0 {
		return nil, nil
	}

	// Level-wise mining of frequent contiguous n-grams with distinct events.
	frequent := map[string]gram{} // all frequent grams by key, any length >= 2
	var level []gram
	for _, g := range countGrams(l, candidateSeeds(l), opts.MinSupport) {
		level = append(level, g)
		frequent[g.key()] = g
	}
	for length := 3; length <= opts.MaxLen && len(level) > 0; length++ {
		cands := extendCandidates(level, frequent)
		next := countGrams(l, cands, opts.MinSupport)
		level = next
		for _, g := range next {
			frequent[g.key()] = g
		}
	}

	// Fold permutation families: event sets with at least two frequent
	// orders become AND candidates.
	bySet := map[string][]gram{}
	for _, g := range frequent {
		bySet[g.setKey()] = append(bySet[g.setKey()], g)
	}

	eng := pattern.NewEngine(pattern.NewTraceIndex(l), 1)
	var mined []*pattern.Pattern
	for _, family := range bySet {
		g0 := family[0]
		if len(family) >= 2 {
			subs := make([]*pattern.Pattern, len(g0.events))
			evs := append([]event.ID(nil), g0.events...)
			sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
			for i, v := range evs {
				subs[i] = pattern.Single(v)
			}
			andP, err := pattern.And(subs...)
			if err != nil {
				return nil, fmt.Errorf("discovery: %w", err)
			}
			if eng.Frequency(andP) >= opts.MinSupport {
				mined = append(mined, andP)
				continue
			}
		}
		// Single-order family (or AND fell under support): keep the most
		// frequent order as a SEQ.
		best := family[0]
		for _, g := range family[1:] {
			if g.support > best.support {
				best = g
			}
		}
		subs := make([]*pattern.Pattern, len(best.events))
		for i, v := range best.events {
			subs[i] = pattern.Single(v)
		}
		seqP, err := pattern.Seq(subs...)
		if err != nil {
			return nil, fmt.Errorf("discovery: %w", err)
		}
		mined = append(mined, seqP)
	}

	mined = dropSubsumed(mined)
	rankPatterns(mined, eng)
	if len(mined) > opts.MaxPatterns {
		mined = mined[:opts.MaxPatterns]
	}
	return mined, nil
}

// gram is a contiguous episode candidate with its support.
type gram struct {
	events  []event.ID
	support float64
}

func (g gram) key() string {
	var b strings.Builder
	for _, v := range g.events {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

func (g gram) setKey() string {
	evs := append([]event.ID(nil), g.events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
	var b strings.Builder
	for _, v := range evs {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// candidateSeeds returns all 2-grams of distinct events present in the log.
func candidateSeeds(l *event.Log) []gram {
	seen := map[[2]event.ID]bool{}
	var out []gram
	for _, t := range l.Traces {
		for i := 0; i+1 < len(t); i++ {
			a, b := t[i], t[i+1]
			if a == b {
				continue
			}
			k := [2]event.ID{a, b}
			if !seen[k] {
				seen[k] = true
				out = append(out, gram{events: []event.ID{a, b}})
			}
		}
	}
	return out
}

// extendCandidates grows frequent k-grams by one event using the frequent
// 2-gram transitions (Apriori pruning: every suffix 2-gram must be frequent).
func extendCandidates(level []gram, frequent map[string]gram) []gram {
	// Collect frequent transitions a->b.
	succ := map[event.ID][]event.ID{}
	for _, g := range frequent {
		if len(g.events) == 2 {
			succ[g.events[0]] = append(succ[g.events[0]], g.events[1])
		}
	}
	var out []gram
	seen := map[string]bool{}
	for _, g := range level {
		last := g.events[len(g.events)-1]
		for _, nxt := range succ[last] {
			if containsEvent(g.events, nxt) {
				continue // pattern events must be distinct
			}
			ng := gram{events: append(append([]event.ID(nil), g.events...), nxt)}
			if !seen[ng.key()] {
				seen[ng.key()] = true
				out = append(out, ng)
			}
		}
	}
	return out
}

func containsEvent(evs []event.ID, v event.ID) bool {
	for _, e := range evs {
		if e == v {
			return true
		}
	}
	return false
}

// countGrams computes supports (fraction of traces containing the gram as a
// contiguous substring) and filters by minimum support.
func countGrams(l *event.Log, cands []gram, minSupport float64) []gram {
	if len(cands) == 0 {
		return nil
	}
	counts := make([]int, len(cands))
	index := map[string]int{}
	for i, g := range cands {
		index[g.key()] = i
	}
	// Scan each trace once per candidate length group.
	for _, t := range l.Traces {
		matched := map[int]bool{}
		for i, g := range cands {
			k := len(g.events)
			if k > len(t) {
				continue
			}
			for s := 0; s+k <= len(t); s++ {
				if equalWindow(t[s:s+k], g.events) {
					if !matched[i] {
						matched[i] = true
						counts[i]++
					}
					break
				}
			}
		}
	}
	inv := 1 / float64(l.NumTraces())
	var out []gram
	for i, g := range cands {
		sup := float64(counts[i]) * inv
		if sup >= minSupport {
			g.support = sup
			out = append(out, g)
		}
	}
	return out
}

func equalWindow(w []event.ID, evs []event.ID) bool {
	for i := range evs {
		if w[i] != evs[i] {
			return false
		}
	}
	return true
}

// dropSubsumed removes patterns whose event set is a strict subset of
// another mined pattern's event set.
func dropSubsumed(ps []*pattern.Pattern) []*pattern.Pattern {
	var out []*pattern.Pattern
	for i, p := range ps {
		subsumed := false
		pset := eventSet(p)
		for j, q := range ps {
			if i == j {
				continue
			}
			qset := eventSet(q)
			if len(pset) < len(qset) && subset(pset, qset) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, p)
		}
	}
	return out
}

func eventSet(p *pattern.Pattern) map[event.ID]bool {
	out := map[event.ID]bool{}
	for _, v := range p.Events() {
		out[v] = true
	}
	return out
}

func subset(a, b map[event.ID]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// rankPatterns orders patterns most-discriminative first: larger patterns
// first, then fewer allowed orders (a SEQ pins more than an AND), then
// higher frequency; ties by textual order for determinism.
func rankPatterns(ps []*pattern.Pattern, eng *pattern.Engine) {
	freq := make(map[*pattern.Pattern]float64, len(ps))
	for _, p := range ps {
		freq[p] = eng.Frequency(p)
	}
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		if a.Orders() != b.Orders() {
			return a.Orders() < b.Orders()
		}
		if freq[a] != freq[b] {
			return freq[a] > freq[b]
		}
		return fmt.Sprint(a.Events()) < fmt.Sprint(b.Events())
	})
}
