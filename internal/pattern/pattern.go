// Package pattern implements event patterns (Definition 3 in the paper):
// compositions of events under SEQ and AND operators, their translation to
// dependency-graph form, trace matching (Definition 4), and normalized
// frequency evaluation (the f(p) of Definition 5).
//
// Semantics recap. SEQ(p1,...,pk) requires the sub-patterns to occur
// back-to-back in the given order; AND(p1,...,pk) accepts any order of the
// sub-pattern blocks, still back-to-back. No foreign events may appear inside
// a pattern instance, so a trace matches p iff some contiguous window of
// length |p| is one of the allowed orderings I(p). All events in a pattern
// are distinct, which the constructors enforce.
//
// Frequency evaluation is served by three layers: TraceIndex (the inverted
// trace index It of Section 3.2.3, which narrows the scan to candidate
// traces), Engine (a worker pool that shards the candidate scan across
// goroutines with bit-identical results at every worker count), and
// FrequencyCache (a sharded, concurrency-safe memo keyed by pattern
// signature). PatternIndex is the pattern index Ip of Section 3.2.1.
package pattern

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

// Op is a pattern operator.
type Op uint8

// Pattern operators.
const (
	OpEvent Op = iota // a single event
	OpSeq             // sequential composition
	OpAnd             // order-free (concurrent) composition
)

// Pattern is an event pattern node. Patterns are immutable after
// construction; build them with Single, Seq and And.
type Pattern struct {
	op    Op
	event event.ID   // valid when op == OpEvent
	subs  []*Pattern // valid otherwise

	size   int        // number of events in the subtree
	events *event.Set // event set of the subtree (dense bitset — the hot-path membership test)
	order  []event.ID // events in left-to-right appearance order
}

// Single returns the pattern consisting of one event.
func Single(v event.ID) *Pattern {
	s := &event.Set{}
	s.Add(v)
	return &Pattern{
		op:     OpEvent,
		event:  v,
		size:   1,
		events: s,
		order:  []event.ID{v},
	}
}

// Seq returns SEQ(subs...). It returns an error if subs is empty or the
// sub-patterns share events (the paper requires all pattern events distinct).
func Seq(subs ...*Pattern) (*Pattern, error) { return compose(OpSeq, subs) }

// And returns AND(subs...) under the same constraints as Seq.
func And(subs ...*Pattern) (*Pattern, error) { return compose(OpAnd, subs) }

// MustSeq is Seq for statically-known-good inputs; it panics on error.
func MustSeq(subs ...*Pattern) *Pattern { return must(Seq(subs...)) }

// MustAnd is And for statically-known-good inputs; it panics on error.
func MustAnd(subs ...*Pattern) *Pattern { return must(And(subs...)) }

func must(p *Pattern, err error) *Pattern {
	if err != nil {
		panic(err)
	}
	return p
}

func compose(op Op, subs []*Pattern) (*Pattern, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("pattern: operator needs at least one sub-pattern")
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	p := &Pattern{op: op, subs: subs, events: &event.Set{}}
	for _, s := range subs {
		if s == nil {
			return nil, fmt.Errorf("pattern: nil sub-pattern")
		}
		p.size += s.size
		// Iterate the appearance-order slice so the reported duplicate is the
		// first one in left-to-right order.
		for _, v := range s.order {
			if p.events.Has(v) {
				return nil, fmt.Errorf("pattern: duplicate event %d (pattern events must be distinct)", v)
			}
			p.events.Add(v)
		}
		p.order = append(p.order, s.order...)
	}
	return p, nil
}

// Size returns |p|, the number of events in the pattern.
func (p *Pattern) Size() int { return p.size }

// Events returns the pattern's events in left-to-right appearance order. The
// returned slice must not be modified.
func (p *Pattern) Events() []event.ID { return p.order }

// Orders returns omega(p) = |I(p)|, the number of distinct event orderings
// the pattern accepts. The count saturates at math.MaxInt64 for pathological
// inputs. A vertex or pure-SEQ pattern has exactly one order.
func (p *Pattern) Orders() int64 {
	switch p.op {
	case OpEvent:
		return 1
	case OpSeq:
		total := int64(1)
		for _, s := range p.subs {
			total = satMul(total, s.Orders())
		}
		return total
	default: // OpAnd
		total := int64(1)
		for i, s := range p.subs {
			total = satMul(total, s.Orders())
			total = satMul(total, int64(i+1)) // running factorial of block count
		}
		return total
	}
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// String renders the pattern with the given alphabet, e.g. "SEQ(A,AND(B,C),D)".
func (p *Pattern) String(a *event.Alphabet) string {
	var b strings.Builder
	p.render(&b, a)
	return b.String()
}

func (p *Pattern) render(b *strings.Builder, a *event.Alphabet) {
	switch p.op {
	case OpEvent:
		b.WriteString(a.Name(p.event))
	case OpSeq, OpAnd:
		if p.op == OpSeq {
			b.WriteString("SEQ(")
		} else {
			b.WriteString("AND(")
		}
		for i, s := range p.subs {
			if i > 0 {
				b.WriteByte(',')
			}
			s.render(b, a)
		}
		b.WriteByte(')')
	}
}

// Map returns a copy of the pattern with every event v replaced by m[v].
// This produces the mapped pattern M(p) of Definition 5. m must be defined
// (non-negative) for every event of p, otherwise Map returns an error.
func (p *Pattern) Map(m []event.ID) (*Pattern, error) {
	switch p.op {
	case OpEvent:
		if int(p.event) >= len(m) || m[p.event] < 0 {
			return nil, fmt.Errorf("pattern: event %d unmapped", p.event)
		}
		return Single(m[p.event]), nil
	default:
		subs := make([]*Pattern, len(p.subs))
		for i, s := range p.subs {
			ms, err := s.Map(m)
			if err != nil {
				return nil, err
			}
			subs[i] = ms
		}
		return compose(p.op, subs)
	}
}

// Graph translates the pattern to dependency-graph form (the construction
// illustrated by the paper's Example 4): SEQ contributes edges from every
// terminal event of block i to every initial event of block i+1; AND
// contributes edges between blocks in both directions.
func (p *Pattern) Graph() ([]event.ID, []depgraph.Edge) {
	var edges []depgraph.Edge
	p.collectEdges(&edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	verts := make([]event.ID, len(p.order))
	copy(verts, p.order)
	return verts, edges
}

// firsts and lasts return the events that can begin / end an instance of p.
func (p *Pattern) firsts() []event.ID {
	switch p.op {
	case OpEvent:
		return []event.ID{p.event}
	case OpSeq:
		return p.subs[0].firsts()
	default:
		var out []event.ID
		for _, s := range p.subs {
			out = append(out, s.firsts()...)
		}
		return out
	}
}

func (p *Pattern) lasts() []event.ID {
	switch p.op {
	case OpEvent:
		return []event.ID{p.event}
	case OpSeq:
		return p.subs[len(p.subs)-1].lasts()
	default:
		var out []event.ID
		for _, s := range p.subs {
			out = append(out, s.lasts()...)
		}
		return out
	}
}

func (p *Pattern) collectEdges(edges *[]depgraph.Edge) {
	switch p.op {
	case OpEvent:
	case OpSeq:
		for _, s := range p.subs {
			s.collectEdges(edges)
		}
		for i := 0; i+1 < len(p.subs); i++ {
			for _, from := range p.subs[i].lasts() {
				for _, to := range p.subs[i+1].firsts() {
					*edges = append(*edges, depgraph.Edge{From: from, To: to})
				}
			}
		}
	default: // OpAnd
		for _, s := range p.subs {
			s.collectEdges(edges)
		}
		for i := range p.subs {
			for j := range p.subs {
				if i == j {
					continue
				}
				for _, from := range p.subs[i].lasts() {
					for _, to := range p.subs[j].firsts() {
						*edges = append(*edges, depgraph.Edge{From: from, To: to})
					}
				}
			}
		}
	}
}

// matchExact reports whether the window w (which must have length
// p.Size()) is one of the orderings in I(p). Because all sub-pattern event
// sets are disjoint, the block owning each position is determined by its
// first event, so the check is linear — no permutation enumeration.
func (p *Pattern) matchExact(w []event.ID) bool {
	switch p.op {
	case OpEvent:
		return w[0] == p.event
	case OpSeq:
		i := 0
		for _, s := range p.subs {
			if !s.matchExact(w[i : i+s.size]) {
				return false
			}
			i += s.size
		}
		return true
	default: // OpAnd
		if len(p.subs) <= 64 {
			// Common case: consumed-block bookkeeping fits one machine word,
			// so the scan loop allocates nothing.
			var done uint64
			i := 0
			for i < len(w) {
				owner := -1
				for k, s := range p.subs {
					if done&(1<<uint(k)) == 0 && s.events.Has(w[i]) {
						owner = k
						break
					}
				}
				if owner == -1 {
					return false
				}
				s := p.subs[owner]
				if i+s.size > len(w) || !s.matchExact(w[i:i+s.size]) {
					return false
				}
				done |= 1 << uint(owner)
				i += s.size
			}
			return true
		}
		done := make([]bool, len(p.subs))
		i := 0
		for i < len(w) {
			owner := -1
			for k, s := range p.subs {
				if !done[k] && s.events.Has(w[i]) {
					owner = k
					break
				}
			}
			if owner == -1 {
				return false
			}
			s := p.subs[owner]
			if i+s.size > len(w) || !s.matchExact(w[i:i+s.size]) {
				return false
			}
			done[owner] = true
			i += s.size
		}
		return true
	}
}

// MatchesTrace reports whether the trace matches the pattern (Definition 4):
// some contiguous window of the trace is in I(p).
func (p *Pattern) MatchesTrace(t event.Trace) bool {
	k := p.size
	for i := 0; i+k <= len(t); i++ {
		if p.events.Has(t[i]) && p.matchExact(t[i:i+k]) {
			return true
		}
	}
	return false
}

// Frequency returns f(p): the fraction of traces in l matching p.
// It returns 0 for an empty log.
func (p *Pattern) Frequency(l *event.Log) float64 {
	if l.NumTraces() == 0 {
		return 0
	}
	n := 0
	for _, t := range l.Traces {
		if p.MatchesTrace(t) {
			n++
		}
	}
	return float64(n) / float64(l.NumTraces())
}
