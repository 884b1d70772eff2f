package experiments

import (
	"fmt"
	"io"
	"time"

	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

// AblationRow reports one ablated variant on one workload slice.
type AblationRow struct {
	X       int // event-set size
	Variant string
	Result  Result
}

// AblationBounds compares the A* pruning power of the simple bound, the tight
// bound, and the tight bound without Proposition 3 existence pruning, over
// event-set sizes (the DESIGN.md bounding ablation; Fig. 7c's axis).
func AblationBounds(cfg Config, sizes []int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	full := realLike(cfg)
	var out []AblationRow
	for _, k := range sizes {
		pg, err := full.ProjectEvents(k)
		if err != nil {
			return nil, err
		}
		in, err := prepare(pg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{k, "simple-bound",
			in.runAStar("simple-bound", match.ModePattern, match.BoundSimple, cfg.ExactBudget)})
		out = append(out, AblationRow{k, "tight-bound",
			in.runAStar("tight-bound", match.ModePattern, match.BoundTight, cfg.ExactBudget)})
		out = append(out, AblationRow{k, "sharp-bound",
			in.runAStar("sharp-bound", match.ModePattern, match.BoundSharp, cfg.ExactBudget)})

		pr, err := in.problem(match.ModePattern)
		if err != nil {
			return nil, err
		}
		pr.DisableExistencePruning = true
		m, st, err := pr.AStar(match.Options{Bound: match.BoundTight, MaxDuration: cfg.ExactBudget})
		r := Result{Approach: "tight-no-prop3", Time: st.Elapsed, Generated: st.Generated, DNF: err != nil, Truncated: st.Truncated}
		if err == nil {
			r.FMeasure = in.fmeasure(m)
		}
		out = append(out, AblationRow{k, "tight-no-prop3", r})
	}
	return out, nil
}

// AblationOrder compares the §3.1 most-patterns-first expansion order against
// naive id order for the exact search.
func AblationOrder(cfg Config, sizes []int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	full := realLike(cfg)
	var out []AblationRow
	for _, k := range sizes {
		pg, err := full.ProjectEvents(k)
		if err != nil {
			return nil, err
		}
		in, err := prepare(pg)
		if err != nil {
			return nil, err
		}
		pr, err := in.problem(match.ModePattern)
		if err != nil {
			return nil, err
		}
		for _, variant := range []struct {
			name  string
			naive bool
		}{{"degree-order", false}, {"naive-order", true}} {
			m, st, err := pr.AStar(match.Options{Bound: match.BoundTight, NaiveOrder: variant.naive, MaxDuration: cfg.ExactBudget})
			r := Result{Approach: variant.name, Time: st.Elapsed, Generated: st.Generated, DNF: err != nil, Truncated: st.Truncated}
			if err == nil {
				r.FMeasure = in.fmeasure(m)
			}
			out = append(out, AblationRow{k, variant.name, r})
		}
	}
	return out, nil
}

// AblationHeuristic compares Heuristic-Advanced with its two refinement
// phases (pattern anchoring, pattern-guided repair) individually disabled —
// quantifying how much each contributes beyond the literal Algorithm 3.
func AblationHeuristic(cfg Config, sizes []int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	full := realLike(cfg)
	variants := []struct {
		name string
		opts match.Options
	}{
		{"full", match.Options{}},
		{"no-seed", match.Options{NoSeed: true}},
		{"no-repair", match.Options{NoRepair: true}},
		{"bare-alg3", match.Options{NoSeed: true, NoRepair: true}},
	}
	var out []AblationRow
	for _, k := range sizes {
		pg, err := full.ProjectEvents(k)
		if err != nil {
			return nil, err
		}
		in, err := prepare(pg)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			r := in.runAdvanced(cfg.ExactBudget, v.opts)
			r.Approach = v.name
			out = append(out, AblationRow{k, v.name, r})
		}
	}
	return out, nil
}

// IndexTiming reports the It trace-index speedup for pattern frequency
// counting: total time to evaluate the workload's patterns with a full log
// scan versus with the inverted index (§3.2.3 ablation).
type IndexTiming struct {
	Direct  time.Duration
	Indexed time.Duration
}

// AblationTraceIndex measures frequency counting with and without It.
func AblationTraceIndex(cfg Config, repetitions int) (IndexTiming, error) {
	cfg = cfg.withDefaults()
	g := realLike(cfg)
	in, err := prepare(g)
	if err != nil {
		return IndexTiming{}, err
	}
	eng := pattern.NewEngine(pattern.NewTraceIndex(g.L1), 1)
	var t IndexTiming
	start := time.Now()
	for r := 0; r < repetitions; r++ {
		for _, p := range in.patterns {
			p.Frequency(g.L1)
		}
	}
	t.Direct = time.Since(start)
	start = time.Now()
	for r := 0; r < repetitions; r++ {
		for _, p := range in.patterns {
			eng.Frequency(p)
		}
	}
	t.Indexed = time.Since(start)
	return t, nil
}

// NoiseRow is one heterogeneity level of the robustness sweep.
type NoiseRow struct {
	Scale   float64
	Results []Result
}

// RobustnessSweep is an extension study beyond the paper: how much
// inter-department heterogeneity (order-statistic divergence, scaled from 0
// = sampling noise only to 2 = twice the calibrated real-like divergence)
// each approach tolerates before its accuracy collapses.
func RobustnessSweep(cfg Config, scales []float64) ([]NoiseRow, error) {
	cfg = cfg.withDefaults()
	var out []NoiseRow
	for _, scale := range scales {
		g := gen.RealLikeDivergence(cfg.Seed, cfg.Traces, scale)
		in, err := prepare(g)
		if err != nil {
			return nil, err
		}
		row := NoiseRow{Scale: scale}
		row.Results = append(row.Results,
			in.runAStar(ApPatternSharp, match.ModePattern, match.BoundSharp, cfg.ExactBudget),
			in.runAdvanced(cfg.ExactBudget, match.Options{}),
			in.runAStar(ApVertexEdge, match.ModeVertexEdge, match.BoundSharp, cfg.ExactBudget),
			in.runVertexAssign(),
			in.runIterative(),
		)
		out = append(out, row)
	}
	return out, nil
}

// PrintRobustness renders the sweep.
func PrintRobustness(w io.Writer, rows []NoiseRow) {
	fmt.Fprintln(w, "Robustness: F-measure over inter-department heterogeneity (scale of calibrated divergence)")
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s", "scale")
	for _, r := range rows[0].Results {
		fmt.Fprintf(w, " %18s", r.Approach)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-8.2f", row.Scale)
		for _, r := range row.Results {
			if r.DNF {
				fmt.Fprintf(w, " %18s", "DNF")
			} else {
				fmt.Fprintf(w, " %18.3f", r.FMeasure)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
