package match

import (
	"fmt"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// StreamProblem is the incremental form of Problem for the streaming session
// layer: the source log L1, the pattern set and the mode are fixed at
// construction; the target log L2 grows one trace at a time. Each append is
// folded into the problem's derived state differentially —
//
//   - the target trace index It is updated in place (TraceIndex.Apply),
//   - the frequency memo drops exactly the entries the new trace can touch
//     (FrequencyCache.Invalidate), plus every entry mentioning an artificial
//     padding id that just became a real event (InvalidateEvents),
//   - the target dependency graph G2 is rebuilt (it stores normalized
//     frequencies, not counts, so every edge weight changes per append; the
//     build is linear in the log and never dominates a search),
//
// after which the wrapped Problem is indistinguishable from one freshly
// built over the grown log (differential-tested in streamprob_test.go), and
// any search can run against it — typically re-seeded from the previous
// published mapping via Options.Seed.
//
// A StreamProblem is single-writer: Append must not run concurrently with
// another Append or with a search on the wrapped Problem. The session layer
// (internal/stream) serializes apply-delta → re-search → publish.
type StreamProblem struct {
	pr *Problem
	// view is the target log as the problem's index sees it: L2 itself, or
	// the padded wrapper when |V1| > |V2| (see Problem). Its pointer identity
	// is fixed for the problem's lifetime; Append re-syncs its trace slice
	// and rebuilds its alphabet when L2's alphabet grows.
	view *event.Log
}

// NewStreamProblem builds a matching instance whose target log can grow.
// l2 may start empty (zero traces, zero events) — the canonical streaming
// start state. The logs are retained; l2 must only be mutated through
// Append.
func NewStreamProblem(l1, l2 *event.Log, user []*pattern.Pattern, mode Mode) (*StreamProblem, error) {
	pr, err := BuildProblem(l1, l2, user, mode)
	if err != nil {
		return nil, err
	}
	return &StreamProblem{pr: pr, view: pr.fc2.Engine().Index().Log()}, nil
}

// Problem returns the wrapped problem. It reflects every append made so far;
// searches on it must not overlap an Append.
func (sp *StreamProblem) Problem() *Problem { return sp.pr }

// NumTraces reports how many target traces the problem currently covers.
func (sp *StreamProblem) NumTraces() int { return sp.pr.L2.NumTraces() }

// Append folds one target trace (given by event names; new names are
// interned) into the problem and returns the delta describing the append.
func (sp *StreamProblem) Append(names ...string) event.Delta {
	pr := sp.pr
	d := pr.L2.AppendNamesDelta(names...)
	if sp.view != pr.L2 {
		// Padded view: its trace slice header is a copy of L2's, so the
		// append above did not propagate — re-sync it.
		sp.view.Traces = pr.L2.Traces
		if len(d.NewEvents) > 0 {
			sp.growPaddedAlphabet()
		}
	} else if len(d.NewEvents) > 0 {
		// Unpadded (|V2| ≥ |V1| at build, and L2 only grows): the real and
		// padded sizes track the alphabet together.
		pr.n2real = pr.L2.NumEvents()
		pr.n2pad = pr.n2real
	}
	sp.pr.fc2.Engine().Index().Apply(d)
	pr.fc2.Invalidate(d.Events)
	pr.setG2(depgraph.Build(sp.view))
	return d
}

// growPaddedAlphabet rebuilds the padded view's alphabet after L2 interned
// new events: real names occupy [0, |V2|), artificial padding fills up to
// max(|V1|, |V2|). Ids in [old |V2|, new |V2|) switch meaning from
// artificial padding to real events, so every memoized frequency mentioning
// them is dropped — their cached signatures describe a different event now.
// Higher artificial ids keep their position, name and all-zero index rows,
// so entries touching only them stay valid.
func (sp *StreamProblem) growPaddedAlphabet() {
	pr := sp.pr
	oldReal := pr.n2real
	n2real := pr.L2.NumEvents()
	n2pad := n2real
	if n1 := pr.L1.NumEvents(); n1 > n2pad {
		n2pad = n1
	}
	a := event.NewAlphabet(pr.L2.Alphabet.Names()...)
	for i := n2real; i < n2pad; i++ {
		a.Intern(fmt.Sprintf("\x00artificial-%d", i))
	}
	sp.view.Alphabet = a
	ids := make([]event.ID, 0, n2real-oldReal)
	for id := oldReal; id < n2real; id++ {
		ids = append(ids, event.ID(id))
	}
	pr.fc2.InvalidateEvents(ids)
	pr.n2real, pr.n2pad = n2real, n2pad
}
