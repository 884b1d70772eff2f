package pattern

import (
	"sort"

	"eventmatch/internal/event"
)

// The test oracle for the dense frequency kernel: the pre-bitset evaluation
// path, kept verbatim in behavior. Event membership goes through a hash map,
// per-window consumed-block bookkeeping through a freshly allocated []bool,
// and candidate traces through a sorted-posting-list merge. The posting lists
// are built by scanning the log, so the oracle shares no state with the
// TraceIndex it checks. The dense kernel must produce bit-identical
// frequencies and candidate lists on every input (see dense_test.go and
// delta_test.go).

// ReferencePattern is the map-backed mirror of a Pattern.
type ReferencePattern struct {
	op     Op
	event  event.ID
	subs   []*ReferencePattern
	size   int
	events map[event.ID]bool
	order  []event.ID
}

// NewReferencePattern mirrors p into the map-backed reference
// representation.
func NewReferencePattern(p *Pattern) *ReferencePattern {
	r := &ReferencePattern{
		op:     p.op,
		event:  p.event,
		size:   p.size,
		events: make(map[event.ID]bool, len(p.order)),
		order:  p.order,
	}
	for _, v := range p.order {
		r.events[v] = true
	}
	for _, s := range p.subs {
		r.subs = append(r.subs, NewReferencePattern(s))
	}
	return r
}

// Events returns the pattern's events in appearance order.
func (r *ReferencePattern) Events() []event.ID { return r.order }

// MatchesTrace is Definition 4 on the reference representation.
func (r *ReferencePattern) MatchesTrace(t event.Trace) bool {
	k := r.size
	for i := 0; i+k <= len(t); i++ {
		if r.events[t[i]] && r.matchExact(t[i:i+k]) {
			return true
		}
	}
	return false
}

func (r *ReferencePattern) matchExact(w []event.ID) bool {
	switch r.op {
	case OpEvent:
		return w[0] == r.event
	case OpSeq:
		i := 0
		for _, s := range r.subs {
			if !s.matchExact(w[i : i+s.size]) {
				return false
			}
			i += s.size
		}
		return true
	default: // OpAnd
		done := make([]bool, len(r.subs))
		i := 0
		for i < len(w) {
			owner := -1
			for k, s := range r.subs {
				if !done[k] && s.events[w[i]] {
					owner = k
					break
				}
			}
			if owner == -1 {
				return false
			}
			s := r.subs[owner]
			if i+s.size > len(w) || !s.matchExact(w[i:i+s.size]) {
				return false
			}
			done[owner] = true
			i += s.size
		}
		return true
	}
}

// postingList returns the sorted indices of l's traces containing v, each
// trace once.
func postingList(l *event.Log, v event.ID) []int32 {
	var out []int32
	for ti, t := range l.Traces {
		for _, e := range t {
			if e == v {
				out = append(out, int32(ti))
				break
			}
		}
	}
	return out
}

// intersect32 merges two sorted posting lists.
func intersect32(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// CandidatesReference computes ∩It(v) over l by sorted-posting-list merge,
// the oracle for the bitset intersection.
func CandidatesReference(l *event.Log, events []event.ID) []int32 {
	if len(events) == 0 {
		return nil
	}
	// Intersect starting from the rarest list to keep the work proportional
	// to the smallest posting list.
	lists := make([][]int32, len(events))
	for i, v := range events {
		lists[i] = postingList(l, v)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	acc := lists[0]
	for _, pl := range lists[1:] {
		acc = intersect32(acc, pl)
		if len(acc) == 0 {
			return nil
		}
	}
	return acc
}

// FrequencyReference computes f(p) over l through the reference path end to
// end: posting-list-merge candidates, map-probe matching. The result must
// equal Engine.Frequency at every worker count bit for bit.
func FrequencyReference(l *event.Log, r *ReferencePattern) float64 {
	total := l.NumTraces()
	if total == 0 {
		return 0
	}
	n := 0
	for _, ti := range CandidatesReference(l, r.Events()) {
		if r.MatchesTrace(l.Traces[ti]) {
			n++
		}
	}
	return float64(n) / float64(total)
}

// Candidates returns the sorted trace indices containing every given event,
// computed by the engine's bitset intersection into a fresh slice. An empty
// intersection (including events outside the alphabet) yields nil.
func (ix *TraceIndex) Candidates(events []event.ID) []int32 {
	cand := NewEngine(ix, 1).candidates(&scanScratch{}, events)
	if cand == nil {
		return nil
	}
	return append([]int32(nil), cand...)
}
