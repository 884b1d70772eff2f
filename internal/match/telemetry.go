package match

import (
	"math"

	"eventmatch/internal/telemetry"
)

// Metric names exported by the searches. They follow the paper's effort
// metrics: astar.* mirrors the per-node costs of Algorithm 1 (Figs. 7–8,
// 12 report its processed-mapping curves), advanced.* the labeling /
// alternating-tree / augmenting-path work of Algorithms 3–4 (Figs. 9–10),
// and the cache.* / engine.* families (registered by the pattern package)
// the trace-scanning cost both share.
const (
	MetricAStarExpanded     = "astar.expanded"
	MetricAStarGenerated    = "astar.generated"
	MetricAStarBoundEvals   = "astar.bound_evals"
	MetricAStarPruneEvents  = "astar.prune_events"
	MetricAStarPruneDropped = "astar.prune_dropped"
	MetricAStarFrontierPeak = "astar.frontier_peak"
	MetricAStarTime         = "astar.time"

	MetricAdvancedRounds   = "advanced.rounds"
	MetricAdvancedTrees    = "advanced.trees"
	MetricAdvancedRelabels = "advanced.labeling_updates"
	MetricAdvancedAugPaths = "advanced.augmenting_paths"
	MetricAdvancedRepair   = "advanced.repair_moves"
	MetricAdvancedSeeds    = "advanced.seed_anchors"
	MetricAdvancedTime     = "advanced.time"

	MetricGreedyExpanded  = "greedy.expanded"
	MetricGreedyGenerated = "greedy.generated"
	MetricGreedyTime      = "greedy.time"

	// MetricSearchRescore is the returned mapping's objective recomputed
	// from scratch, in millionths — a cross-check of the incrementally
	// maintained score.
	MetricSearchRescore = "search.final_score_x1e6"
)

// searchTelemetry holds one search run's pre-resolved metric handles, so hot
// loops pay one atomic add per event instead of a registry lookup. With a
// nil registry every handle is nil and every update is a no-op — the
// disabled-telemetry fast path.
type searchTelemetry struct {
	reg *telemetry.Registry

	// A* (Algorithm 1).
	expanded     *telemetry.Counter
	generated    *telemetry.Counter
	boundEvals   *telemetry.Counter
	pruneEvents  *telemetry.Counter
	pruneDropped *telemetry.Counter
	frontierPeak *telemetry.Gauge

	// Heuristic-Advanced (Algorithms 3 and 4).
	rounds      *telemetry.Counter
	trees       *telemetry.Counter
	relabels    *telemetry.Counter
	augPaths    *telemetry.Counter
	repairMoves *telemetry.Counter
	seedAnchors *telemetry.Counter

	// Heuristic-Simple.
	greedyExpanded  *telemetry.Counter
	greedyGenerated *telemetry.Counter
}

// newSearchTelemetry resolves the search metrics against the run's registry
// (taken from Options.Telemetry) and attaches the registry to the problem's
// frequency cache, so cache.* and engine.* metrics land in the same
// snapshot. Always returns a usable (possibly all-nil) handle set.
func (pr *Problem) newSearchTelemetry(opts Options) *searchTelemetry {
	reg := opts.Telemetry
	pr.fc2.SetTelemetry(reg)
	return &searchTelemetry{
		reg: reg,

		expanded:     reg.Counter(MetricAStarExpanded),
		generated:    reg.Counter(MetricAStarGenerated),
		boundEvals:   reg.Counter(MetricAStarBoundEvals),
		pruneEvents:  reg.Counter(MetricAStarPruneEvents),
		pruneDropped: reg.Counter(MetricAStarPruneDropped),
		frontierPeak: reg.Gauge(MetricAStarFrontierPeak),

		rounds:      reg.Counter(MetricAdvancedRounds),
		trees:       reg.Counter(MetricAdvancedTrees),
		relabels:    reg.Counter(MetricAdvancedRelabels),
		augPaths:    reg.Counter(MetricAdvancedAugPaths),
		repairMoves: reg.Counter(MetricAdvancedRepair),
		seedAnchors: reg.Counter(MetricAdvancedSeeds),

		greedyExpanded:  reg.Counter(MetricGreedyExpanded),
		greedyGenerated: reg.Counter(MetricGreedyGenerated),
	}
}

// noteRescore publishes the returned mapping's pattern normal distance,
// recomputed from scratch by the anytime frame, as a gauge in millionths,
// cross-checking the score the search maintained incrementally. The rescore
// re-reads every completed pattern's frequency, so an instrumented run
// always exercises the frequency cache's hit path at least once. No-op
// without a registry.
func (t *searchTelemetry) noteRescore(score float64) {
	if t.reg == nil {
		return
	}
	t.reg.Gauge(MetricSearchRescore).Set(int64(math.Round(score * 1e6)))
}

// finish stamps the run's registry snapshot into the returned Stats, giving
// callers the full counter set alongside the classic effort fields.
func (t *searchTelemetry) finish(st *Stats) {
	if t.reg == nil {
		return
	}
	snap := t.reg.Snapshot()
	st.Telemetry = &snap
}
