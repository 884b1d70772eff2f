// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated workloads, printing paper-style rows.
//
// Usage:
//
//	experiments [-only table3,fig7,fig8,fig9,fig10,fig12,table4,robustness,ablations] [flags]
//
// The full paper-scale run (3,000 real-like traces, 10,000 synthetic traces,
// 1,000 Table-4 repetitions) takes a few minutes; use -quick for a reduced
// configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"eventmatch/internal/experiments"
)

// experimentNames lists the -only values, in run order.
var experimentNames = []string{"table3", "fig7", "fig8", "fig9", "fig10", "fig12", "table4", "robustness", "ablations"}

func main() {
	only := flag.String("only", "", "comma-separated subset of experiments to run (default: all): "+strings.Join(experimentNames, ","))
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	seed := flag.Int64("seed", 7, "workload seed")
	budget := flag.Duration("budget", 60*time.Second, "per-run budget for exact approaches")
	flag.Parse()

	selected, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, ExactBudget: *budget}
	if *quick {
		cfg.Traces = 800
		cfg.SynthTraces = 1000
		cfg.Runs = 50
	}
	if err := run(cfg, selected); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// parseOnly turns the -only value into a selection predicate. An empty
// value selects every experiment; an unknown name is an error naming the
// valid ones.
func parseOnly(only string) (func(string) bool, error) {
	if only == "" {
		return func(string) bool { return true }, nil
	}
	known := make(map[string]bool, len(experimentNames))
	for _, name := range experimentNames {
		known[name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("-only: unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ", "))
		}
		want[name] = true
	}
	return func(name string) bool { return want[name] }, nil
}

func run(cfg experiments.Config, selected func(string) bool) error {
	out := os.Stdout
	if selected("table3") {
		experiments.PrintTable3(out, experiments.Table3(cfg))
		fmt.Fprintln(out)
	}
	figs := []struct {
		name, title, xlabel string
		run                 func(experiments.Config) ([]experiments.Point, error)
	}{
		{"fig7", "Fig. 7: exact approaches over # of events", "#events", experiments.Fig7},
		{"fig8", "Fig. 8: exact approaches over # of traces", "#traces", experiments.Fig8},
		{"fig9", "Fig. 9: heuristic approaches over # of events", "#events", experiments.Fig9},
		{"fig10", "Fig. 10: heuristic approaches over # of traces", "#traces", experiments.Fig10},
		{"fig12", "Fig. 12: larger synthetic data over # of events", "#events", experiments.Fig12},
	}
	for _, f := range figs {
		if !selected(f.name) {
			continue
		}
		points, err := f.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		experiments.PrintFigure(out, f.title, f.xlabel, points)
	}
	if selected("table4") {
		rows, err := experiments.Table4(cfg)
		if err != nil {
			return fmt.Errorf("table4: %w", err)
		}
		experiments.PrintTable4(out, rows)
		fmt.Fprintln(out)
	}
	if selected("robustness") {
		rows, err := experiments.RobustnessSweep(cfg, []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2})
		if err != nil {
			return fmt.Errorf("robustness: %w", err)
		}
		experiments.PrintRobustness(out, rows)
	}
	if selected("ablations") {
		sizes := []int{6, 8, 10, 11}
		bounds, err := experiments.AblationBounds(cfg, sizes)
		if err != nil {
			return fmt.Errorf("ablation bounds: %w", err)
		}
		experiments.PrintAblation(out, "Ablation: A* score bounds (simple vs tight vs tight-without-Prop3)", bounds)

		order, err := experiments.AblationOrder(cfg, sizes)
		if err != nil {
			return fmt.Errorf("ablation order: %w", err)
		}
		experiments.PrintAblation(out, "Ablation: expansion order (most-patterns-first vs naive)", order)

		heur, err := experiments.AblationHeuristic(cfg, sizes)
		if err != nil {
			return fmt.Errorf("ablation heuristic: %w", err)
		}
		experiments.PrintAblation(out, "Ablation: Heuristic-Advanced phases (anchoring / repair)", heur)

		tm, err := experiments.AblationTraceIndex(cfg, 5)
		if err != nil {
			return fmt.Errorf("ablation index: %w", err)
		}
		fmt.Fprintf(out, "Ablation: It trace index — pattern frequency counting, 5 repetitions\n")
		fmt.Fprintf(out, "  full-scan: %v   indexed: %v   speedup: %.1fx\n\n",
			tm.Direct, tm.Indexed, float64(tm.Direct)/float64(tm.Indexed+1))
	}
	return nil
}
