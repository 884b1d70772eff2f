package match

import (
	"context"
	"time"

	"eventmatch/internal/event"
)

// This file implements the anytime contract the three searches share: the
// frame every search runs in, its incumbent, and the one greedy completion
// that turns a partial mapping into a complete one. A search polls its
// stopper and, when a budget fires, hands back the partial mapping it has
// reached; the frame completes it. The incumbent starts at a valid
// Options.Seed and rises with every emitted checkpoint (best-so-far
// snapshots, Options.Checkpoint), and the frame returns it whenever the
// search's result scores below it — so a search restarted from a persisted
// checkpoint can never come back worse than the checkpoint it resumed from.

// searchBody is one search's loop inside the anytime frame. It counts its
// effort into st and polls stop. Run to the end, it returns its complete
// mapping with st.Score set; once stop has fired, it returns the partial
// mapping it reached, which the frame completes and scores.
type searchBody func(opts Options, stop *stopper, tele *searchTelemetry, st *Stats) (Mapping, error)

// anytime runs body in the frame the three searches share: telemetry, the
// named timer, the worker width, the stopper with its incumbent, the
// completion of a stopped search's partial mapping, the incumbent as a
// floor on the result, and the rescore gauge.
func (pr *Problem) anytime(ctx context.Context, opts Options, timer string, body searchBody) (Mapping, Stats, error) {
	tele := pr.newSearchTelemetry(opts)
	span := opts.Telemetry.Timer(timer).Start()
	pr.applyWorkers(opts)
	stop := newStopper(ctx, opts, time.Now())
	stop.complete = func(m Mapping) (Mapping, float64) { return pr.complete(m, opts) }
	if pr.validSeed(opts.Seed) {
		stop.best, stop.bestScore = opts.Seed, pr.Distance(opts.Seed)
	}
	var st Stats
	m, err := body(opts, stop, tele, &st)
	if reason, halt := stop.halted(); halt && err == nil {
		st.Truncated, st.StopReason = true, reason
		m, st.Score = pr.complete(m, opts)
	}
	st.Elapsed = time.Since(stop.start)
	span.Stop()
	// The result is scored under Distance (pattern order) rather than
	// st.Score, which the goal paths accumulate in expansion order: sums of
	// the same terms can differ in the last ulp across orders, and a tie
	// with the incumbent must deterministically keep the search result (the
	// streaming layer relies on a re-seeded exact search returning exactly
	// the cold-search mapping). Errors pass through untouched.
	if err == nil && (stop.best != nil || tele.reg != nil) {
		score := pr.Distance(m)
		if stop.best != nil && score < stop.bestScore {
			m, score = stop.best.Clone(), stop.bestScore
			st.Score = score
		}
		tele.noteRescore(score)
	}
	tele.finish(&st)
	return m, st, err
}

// complete returns a complete injective mapping built from the partial
// mapping m, which it does not modify: every unmapped source event is
// filled by completeGreedy over the padded target set, the result is
// scored with Distance, and images of artificial targets are stripped.
func (pr *Problem) complete(m Mapping, opts Options) (Mapping, float64) {
	m = m.Clone()
	pr.completeGreedy(m, usedTargets(m, pr.n2pad), opts)
	assertInjective("anytime completion", m)
	score := pr.Distance(m)
	return pr.stripArtificial(m), score
}

// usedTargets marks the images of m among n2 targets.
func usedTargets(m Mapping, n2 int) []bool {
	used := make([]bool, n2)
	for _, v := range m {
		if v != event.None {
			used[v] = true
		}
	}
	return used
}

// validSeed reports whether seed can start the incumbent for this problem:
// right dimensions, targets inside the real V2, and injective.
func (pr *Problem) validSeed(seed Mapping) bool {
	if seed == nil || len(seed) != pr.L1.NumEvents() {
		return false
	}
	used := make([]bool, pr.n2real)
	for _, v := range seed {
		if v == event.None {
			continue
		}
		if int(v) >= pr.n2real || used[v] {
			return false
		}
		used[v] = true
	}
	return true
}
