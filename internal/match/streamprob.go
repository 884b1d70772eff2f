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
//     (FrequencyCache.Invalidate),
//   - the new trace is folded into G2's raw vertex and edge trace-counts
//     (depgraph.Counts.Add), and G2 is materialized afresh from them: every
//     normalized frequency changes per append, but the counts change only
//     where the trace occurs, so an append costs O(|trace| + V + E), not a
//     pass over the log,
//
// after which the wrapped Problem is indistinguishable from one freshly
// built over the grown log (differential-tested in streamprob_test.go), and
// any search can run against it — typically re-seeded from the previous
// published mapping via Options.Seed.
//
// When L2's alphabet grows under padding, ids that were artificial padding
// become real events. No memoized frequency goes stale by that: padding ids
// occur in no trace, so an entry mentioning a just-real id X has count 0.
// Either the appended trace holds every event of the entry, and Invalidate
// drops it, or it lacks one, and since X occurs in no earlier trace either,
// the count is still exactly 0. G2's counts of X are likewise 0 until the
// fold of the trace that introduces it.
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
	// counts holds view's vertex and edge trace-counts; G2 is materialized
	// from them.
	counts *depgraph.Counts
}

// NewStreamProblem builds a matching instance whose target log can grow.
// l2 may start empty (zero traces, zero events) — the canonical streaming
// start state. The logs are retained; l2 must only be mutated through
// Append.
func NewStreamProblem(l1, l2 *event.Log, user []*pattern.Pattern, mode Mode) (*StreamProblem, error) {
	pr, counts, err := buildProblem(l1, l2, user, mode)
	if err != nil {
		return nil, err
	}
	return &StreamProblem{pr: pr, view: pr.fc2.Engine().Index().Log(), counts: counts}, nil
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
	pr.fc2.Engine().Index().Apply(d)
	pr.fc2.Invalidate(d.Events)
	sp.counts.Grow(sp.view.NumEvents())
	sp.counts.Add(d.Trace)
	pr.setG2(sp.counts.Graph(sp.view.Alphabet))
	assertFoldedG2(pr.G2, sp.view)
	return d
}

// growPaddedAlphabet rebuilds the padded view's alphabet after L2 interned
// new events: real names occupy [0, |V2|), artificial padding fills up to
// max(|V1|, |V2|). Ids in [old |V2|, new |V2|) switch meaning from
// artificial padding to real events; higher artificial ids keep their
// position, name and all-zero index rows. (Why no memoized frequency needs
// dropping for the switch: see StreamProblem.)
func (sp *StreamProblem) growPaddedAlphabet() {
	pr := sp.pr
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
	pr.n2real, pr.n2pad = n2real, n2pad
}
